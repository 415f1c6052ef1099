// Filesystems the benchmark hands to the service as ServiceConfig::filesystem.
//
//   MemoryFileSystem    files live in process memory, so a persisted publish
//                       costs encoding and a copy, never the shared disk.
//                       Single-threaded: only the writer thread touches it.
//   CountingFileSystem  decorator that counts bytes appended, fsyncs (file
//                       and directory), and the time spent in append and
//                       sync calls.  Counters are plain fields: the writer
//                       thread is the only caller.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/file.hpp"

namespace perfbench {

class MemoryFileSystem final : public eyeball::util::FileSystem {
 public:
  [[nodiscard]] eyeball::util::Status open_for_write(
      const std::string& path, std::unique_ptr<eyeball::util::WritableFile>& out) override;
  [[nodiscard]] eyeball::util::Status read_file(const std::string& path,
                                                std::vector<std::byte>& out) override;
  [[nodiscard]] eyeball::util::Status rename_file(const std::string& from,
                                                  const std::string& to) override;
  [[nodiscard]] eyeball::util::Status remove_file(const std::string& path) override;
  [[nodiscard]] eyeball::util::Status sync_dir(const std::string& path) override;
  [[nodiscard]] eyeball::util::Status create_directories(const std::string& path) override;
  [[nodiscard]] eyeball::util::Status list_dir(const std::string& path,
                                               std::vector<std::string>& names) override;

 private:
  /// shared_ptr so an open WritableFile keeps appending to its buffer even
  /// if the path is renamed or removed underneath it.
  std::map<std::string, std::shared_ptr<std::vector<std::byte>>> files_;
};

struct FileCounters {
  std::uint64_t bytes = 0;
  std::uint64_t syncs = 0;
  double append_s = 0.0;
  double sync_s = 0.0;

  [[nodiscard]] FileCounters since(const FileCounters& earlier) const {
    return {bytes - earlier.bytes, syncs - earlier.syncs, append_s - earlier.append_s,
            sync_s - earlier.sync_s};
  }
};

class CountingFileSystem final : public eyeball::util::FileSystem {
 public:
  explicit CountingFileSystem(eyeball::util::FileSystem& base) : base_(base) {}

  [[nodiscard]] const FileCounters& counters() const noexcept { return counters_; }

  [[nodiscard]] eyeball::util::Status open_for_write(
      const std::string& path, std::unique_ptr<eyeball::util::WritableFile>& out) override;
  [[nodiscard]] eyeball::util::Status read_file(const std::string& path,
                                                std::vector<std::byte>& out) override {
    return base_.read_file(path, out);
  }
  [[nodiscard]] eyeball::util::Status rename_file(const std::string& from,
                                                  const std::string& to) override {
    return base_.rename_file(from, to);
  }
  [[nodiscard]] eyeball::util::Status remove_file(const std::string& path) override {
    return base_.remove_file(path);
  }
  [[nodiscard]] eyeball::util::Status sync_dir(const std::string& path) override;
  [[nodiscard]] eyeball::util::Status create_directories(const std::string& path) override {
    return base_.create_directories(path);
  }
  [[nodiscard]] eyeball::util::Status list_dir(const std::string& path,
                                               std::vector<std::string>& names) override {
    return base_.list_dir(path, names);
  }
  [[nodiscard]] eyeball::util::Status map_read_only(const std::string& path,
                                                    eyeball::util::MappedFile& out) override {
    return base_.map_read_only(path, out);
  }

 private:
  eyeball::util::FileSystem& base_;
  FileCounters counters_;
};

}  // namespace perfbench
