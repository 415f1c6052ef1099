#include "util/file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

// This translation unit is the checked I/O layer: the only place in the
// library where raw fwrite/fread/rename/fsync may appear (the unchecked-io
// lint exempts src/util/file.*).  Every raw call here is wrapped so its
// result becomes a Status.

namespace eyeball::util {

namespace {

namespace stdfs = std::filesystem;

[[nodiscard]] std::string errno_message(const char* op, const std::string& path) {
  std::string out{op};
  out += " '";
  out += path;
  out += "': ";
  out += std::strerror(errno);
  return out;
}

[[nodiscard]] Status errno_status(const char* op, const std::string& path) {
  if (errno == ENOENT) return Status::not_found(errno_message(op, path));
  return Status::io_error(errno_message(op, path));
}

class LocalWritableFile final : public WritableFile {
 public:
  LocalWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~LocalWritableFile() override {
    if (file_ != nullptr) {
      // Error path abandoning the handle; the data is about to be discarded,
      // so a failed close has nothing further to report.
      static_cast<void>(std::fclose(file_));
    }
  }

  Status append(std::span<const std::byte> data) override {
    if (file_ == nullptr) return Status::io_error("append on closed file");
    if (data.empty()) return Status{};
    const std::size_t written =
        std::fwrite(data.data(), 1, data.size(), file_);
    if (written != data.size()) return errno_status("write", path_);
    return Status{};
  }

  Status sync() override {
    if (file_ == nullptr) return Status::io_error("sync on closed file");
    if (std::fflush(file_) != 0) return errno_status("flush", path_);
    if (::fsync(::fileno(file_)) != 0) return errno_status("fsync", path_);
    return Status{};
  }

  Status close() override {
    if (file_ == nullptr) return Status{};  // idempotent
    std::FILE* file = std::exchange(file_, nullptr);
    if (std::fclose(file) != 0) return errno_status("close", path_);
    return Status{};
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class LocalFileSystem final : public FileSystem {
 public:
  Status open_for_write(const std::string& path,
                        std::unique_ptr<WritableFile>& out) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return errno_status("open", path);
    out = std::make_unique<LocalWritableFile>(file, path);
    return Status{};
  }

  Status read_file(const std::string& path,
                   std::vector<std::byte>& out) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return errno_status("open", path);
    std::vector<std::byte> bytes;
    std::array<std::byte, 1 << 16> chunk;
    for (;;) {
      const std::size_t got = std::fread(chunk.data(), 1, chunk.size(), file);
      bytes.insert(bytes.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(got));
      if (got < chunk.size()) {
        if (std::ferror(file) != 0) {
          const Status status = errno_status("read", path);
          static_cast<void>(std::fclose(file));
          return status;
        }
        break;  // clean EOF
      }
    }
    if (std::fclose(file) != 0) return errno_status("close", path);
    out = std::move(bytes);
    return Status{};
  }

  Status rename_file(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return errno_status("rename", from);
    }
    return Status{};
  }

  Status remove_file(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return errno_status("remove", path);
    return Status{};
  }

  Status sync_dir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return errno_status("open dir", path);
    if (::fsync(fd) != 0) {
      const Status status = errno_status("fsync dir", path);
      static_cast<void>(::close(fd));
      return status;
    }
    if (::close(fd) != 0) return errno_status("close dir", path);
    return Status{};
  }

  Status create_directories(const std::string& path) override {
    std::error_code ec;
    stdfs::create_directories(stdfs::path{path}, ec);
    if (ec) {
      return Status::io_error("create_directories '" + path + "': " + ec.message());
    }
    return Status{};
  }

  Status map_read_only(const std::string& path, MappedFile& out) override {
    return map_file_read_only(path, out);
  }

  Status list_dir(const std::string& path,
                  std::vector<std::string>& names) override {
    names.clear();
    std::error_code ec;
    stdfs::directory_iterator it{stdfs::path{path}, ec};
    if (ec) {
      if (ec == std::errc::no_such_file_or_directory) {
        return Status::not_found("list_dir '" + path + "': " + ec.message());
      }
      return Status::io_error("list_dir '" + path + "': " + ec.message());
    }
    for (const stdfs::directory_entry& entry : it) {
      std::error_code type_ec;
      if (entry.is_regular_file(type_ec) && !type_ec) {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());
    return Status{};
  }
};

/// Applies one FileFault to the byte stream appended through it.  `offset`
/// is the logical position in the concatenation of all append() payloads.
class FaultInjectingWritableFile final : public WritableFile {
 public:
  FaultInjectingWritableFile(std::unique_ptr<WritableFile> base,
                             FileFault fault, bool* fired)
      : base_(std::move(base)), fault_(fault), fired_(fired) {}

  Status append(std::span<const std::byte> data) override {
    if (dead_) return Status::io_error("injected: file dead after short write");
    const std::uint64_t begin = offset_;
    const std::uint64_t end = begin + data.size();
    offset_ = end;

    switch (fault_.kind) {
      case FileFault::Kind::kShortWrite:
        if (end > fault_.offset) {
          // Persist the prefix that "made it", then report failure.
          const auto keep = static_cast<std::size_t>(
              fault_.offset > begin ? fault_.offset - begin : 0);
          if (keep > 0) {
            const Status status = base_->append(data.first(keep));
            if (!status.ok()) return status;
          }
          *fired_ = true;
          dead_ = true;
          return Status::io_error("injected short write");
        }
        break;
      case FileFault::Kind::kBitFlip:
        if (fault_.offset >= begin && fault_.offset < end) {
          std::vector<std::byte> copy{data.begin(), data.end()};
          const auto at = static_cast<std::size_t>(fault_.offset - begin);
          copy[at] ^= static_cast<std::byte>(1U << (fault_.bit & 7U));
          *fired_ = true;
          return base_->append(copy);  // silent: success reported
        }
        break;
      case FileFault::Kind::kTruncate:
        if (silent_drop_) return Status{};  // tail silently discarded
        if (end > fault_.offset) {
          const auto keep = static_cast<std::size_t>(
              fault_.offset > begin ? fault_.offset - begin : 0);
          *fired_ = true;
          silent_drop_ = true;
          if (keep > 0) return base_->append(data.first(keep));
          return Status{};  // silent: success reported
        }
        break;
      case FileFault::Kind::kNoSpace:
        if (device_full_ || end > fault_.offset) {
          // The prefix that fit persists once; after that the device stays
          // full — every further append re-fails with the SAME typed error
          // (what a retrying writer sees from a genuinely full disk).
          if (!device_full_) {
            const auto keep = static_cast<std::size_t>(
                fault_.offset > begin ? fault_.offset - begin : 0);
            if (keep > 0) {
              const Status status = base_->append(data.first(keep));
              if (!status.ok()) return status;
            }
            device_full_ = true;
          }
          *fired_ = true;
          return Status::io_error("injected: no space left on device");
        }
        break;
      case FileFault::Kind::kFailedSync:
      case FileFault::Kind::kNone:
        break;
    }
    return base_->append(data);
  }

  Status sync() override {
    if (dead_) return Status::io_error("injected: file dead after short write");
    if (fault_.kind == FileFault::Kind::kFailedSync) {
      // The data reached the kernel; only the durability guarantee is lost.
      static_cast<void>(base_->sync());
      *fired_ = true;
      return Status::io_error("injected fsync failure");
    }
    return base_->sync();
  }

  Status close() override { return base_->close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FileFault fault_;
  bool* fired_;
  std::uint64_t offset_ = 0;
  bool dead_ = false;
  bool silent_drop_ = false;
  bool device_full_ = false;
};

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    mapped_ = std::exchange(other.mapped_, nullptr);
    size_ = std::exchange(other.size_, 0);
    owned_ = std::move(other.owned_);
    other.owned_.clear();
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (mapped_ != nullptr) {
    // Teardown of a read-only private mapping cannot meaningfully fail in a
    // way the caller could act on; mirror fclose-on-error-path handling.
    static_cast<void>(::munmap(mapped_, size_));
  }
  mapped_ = nullptr;
  size_ = 0;
  owned_.clear();
}

Status map_file_read_only(const std::string& path, MappedFile& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_status("open", path);
  struct ::stat info{};
  if (::fstat(fd, &info) != 0) {
    const Status status = errno_status("stat", path);
    static_cast<void>(::close(fd));
    return status;
  }
  const auto size = static_cast<std::size_t>(info.st_size);
  MappedFile file;
  if (size > 0) {
    // MAP_PRIVATE read-only: this view must never observe or cause writes;
    // page-cache pages stay shared with every other mapper of the file.
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status = errno_status("mmap", path);
      static_cast<void>(::close(fd));
      return status;
    }
    file.mapped_ = addr;
    file.size_ = size;
  }
  // The mapping outlives the descriptor (POSIX: munmap, not close, ends it).
  if (::close(fd) != 0) return errno_status("close", path);
  out = std::move(file);
  return Status{};
}

Status FileSystem::map_read_only(const std::string& path, MappedFile& out) {
  std::vector<std::byte> buffer;
  if (Status status = read_file(path, buffer); !status.ok()) return status;
  out = MappedFile::from_buffer(std::move(buffer));
  return Status{};
}

FileSystem& local_filesystem() {
  static LocalFileSystem fs;
  return fs;
}

Status atomic_write_file(FileSystem& fs, const std::string& path,
                         std::span<const std::byte> bytes) {
  if (path.empty()) return Status::invalid_argument("empty path");
  const std::string tmp = path + ".tmp";

  // Reclaim a stale tmp from a previous crashed or fault-interrupted
  // writer.  open_for_write truncates, so the stale bytes could not leak
  // into THIS write anyway — the reclaim matters for the failure paths: if
  // the open below is refused (transient error, permissions), the poisoned
  // tmp must not linger where a later inspection — or a rename issued by
  // anything else — could mistake it for this writer's output.  A missing
  // tmp is the normal case; a refused removal is neutralized by the
  // truncating open anyway, so neither outcome is worth reporting.
  static_cast<void>(fs.remove_file(tmp));

  std::unique_ptr<WritableFile> file;
  Status status = fs.open_for_write(tmp, file);
  if (!status.ok()) return status;

  status = file->append(bytes);
  if (status.ok()) status = file->sync();
  if (status.ok()) status = file->close();
  if (!status.ok()) {
    static_cast<void>(file->close());
    static_cast<void>(fs.remove_file(tmp));
    return status;
  }

  status = fs.rename_file(tmp, path);
  if (!status.ok()) {
    static_cast<void>(fs.remove_file(tmp));
    return status;
  }

  // Make the rename itself durable: fsync the containing directory.
  const stdfs::path parent = stdfs::path{path}.parent_path();
  return fs.sync_dir(parent.empty() ? std::string{"."} : parent.string());
}

std::string_view to_string(FileFault::Kind kind) noexcept {
  switch (kind) {
    case FileFault::Kind::kNone:
      return "none";
    case FileFault::Kind::kShortWrite:
      return "short-write";
    case FileFault::Kind::kFailedSync:
      return "failed-fsync";
    case FileFault::Kind::kBitFlip:
      return "bit-flip";
    case FileFault::Kind::kTruncate:
      return "truncate";
    case FileFault::Kind::kNoSpace:
      return "no-space";
  }
  return "unknown";
}

Status quarantine_file(FileSystem& fs, const std::string& path, const Status& why) {
  if (path.empty()) return Status::invalid_argument("quarantine_file: empty path");
  const std::string aside = path + std::string{kQuarantineSuffix};
  if (Status status = fs.rename_file(path, aside); !status.ok()) {
    return status.with_context("quarantine_file");
  }
  // The evidence is safe; now record WHY it was condemned.  Best-effort:
  // the sidecar is context for a human post-mortem, and a failure to write
  // it must not turn a successful quarantine into a reported failure.
  const std::string reason = why.to_string() + "\n";
  std::vector<std::byte> bytes(reason.size());
  std::memcpy(bytes.data(), reason.data(), reason.size());
  static_cast<void>(atomic_write_file(fs, aside + ".reason", bytes));
  return Status{};
}

Status FaultInjectingFileSystem::open_for_write(
    const std::string& path, std::unique_ptr<WritableFile>& out) {
  if (transient_open_failures_ > 0) {
    --transient_open_failures_;
    fault_fired_ = true;
    return Status::io_error("injected transient open failure");
  }
  std::unique_ptr<WritableFile> base_file;
  const Status status = base_.open_for_write(path, base_file);
  if (!status.ok()) return status;
  if (armed_.kind == FileFault::Kind::kNone) {
    out = std::move(base_file);
    return Status{};
  }
  const FileFault fault = std::exchange(armed_, FileFault{});
  out = std::make_unique<FaultInjectingWritableFile>(std::move(base_file),
                                                     fault, &fault_fired_);
  return Status{};
}

Status FaultInjectingFileSystem::read_file(const std::string& path,
                                           std::vector<std::byte>& out) {
  return base_.read_file(path, out);
}

Status FaultInjectingFileSystem::rename_file(const std::string& from,
                                             const std::string& to) {
  if (fail_rename_) {
    fail_rename_ = false;
    fault_fired_ = true;
    if (keep_tmp_on_failed_rename_) {
      // Shield the source file from the caller's best-effort cleanup so it
      // survives as on-disk debris (see fail_next_rename_leaving_tmp).
      keep_tmp_on_failed_rename_ = false;
      protected_tmp_ = from;
    }
    return Status::io_error("injected rename failure");
  }
  if (transient_rename_failures_ > 0) {
    --transient_rename_failures_;
    fault_fired_ = true;
    return Status::io_error("injected transient rename failure");
  }
  return base_.rename_file(from, to);
}

Status FaultInjectingFileSystem::remove_file(const std::string& path) {
  if (!protected_tmp_.empty() && path == protected_tmp_) {
    protected_tmp_.clear();
    return Status::io_error("injected remove failure (tmp left behind)");
  }
  return base_.remove_file(path);
}

Status FaultInjectingFileSystem::sync_dir(const std::string& path) {
  return base_.sync_dir(path);
}

Status FaultInjectingFileSystem::create_directories(const std::string& path) {
  return base_.create_directories(path);
}

Status FaultInjectingFileSystem::list_dir(const std::string& path,
                                          std::vector<std::string>& names) {
  return base_.list_dir(path, names);
}

Status FaultInjectingFileSystem::map_read_only(const std::string& path,
                                               MappedFile& out) {
  return base_.map_read_only(path, out);
}

}  // namespace eyeball::util
