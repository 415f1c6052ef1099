// The checked I/O layer: every filesystem interaction in this library goes
// through these interfaces, and every operation reports a util::Status —
// the repo lint (`unchecked-io`) flags raw fwrite/fread/rename/fsync calls
// anywhere else, so an ignored error cannot creep in outside this file.
//
// Two things justify the indirection over plain <cstdio>:
//
//   1. Crash safety is a protocol, not a call.  `atomic_write_file` is the
//      one blessed way to publish bytes: write to `<path>.tmp`, fsync the
//      file, atomically rename over `path`, then fsync the parent directory
//      so the rename itself is durable.  A crash at any point leaves either
//      the old file or the new one — never a half-written hybrid (the tmp
//      may survive as garbage; writers ignore or reclaim it).
//
//   2. Faults must be injectable.  FileSystem is a seam:
//      `FaultInjectingFileSystem` wraps the real one and deterministically
//      injects the failure classes a longitudinal study meets in practice —
//      short writes, failed fsyncs, silent bit flips, torn-off tails — at a
//      chosen byte offset, so tests can prove the snapshot layer never
//      loads silently-wrong state (see tests/snapshot_fault_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace eyeball::util {

/// An append-only output file.  Lifecycle: append* -> sync -> close; every
/// step can fail and the caller must check (the lint enforces it upstream).
/// Destruction without close() abandons the handle best-effort — correct
/// for error paths that are about to delete the file anyway.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  [[nodiscard]] virtual Status append(std::span<const std::byte> data) = 0;
  /// Flushes user-space buffers AND asks the kernel to reach stable storage
  /// (fsync).  A successful close() without sync() is durable only as far
  /// as the page cache — callers publishing data must sync first.
  [[nodiscard]] virtual Status sync() = 0;
  [[nodiscard]] virtual Status close() = 0;
};

/// A read-only view of a whole file, held open for the lifetime of the
/// object.  The real filesystem backs it with mmap(2), so N processes (or N
/// ArtifactViews in one process) share the same physical pages and
/// nothing is copied up front; fakes and fault injectors may back it with an
/// owned heap buffer instead — the reader-facing contract is only `bytes()`
/// staying valid and immutable until destruction.
///
/// Move-only.  A default-constructed MappedFile is empty (bytes().empty()).
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { reset(); }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    if (mapped_ != nullptr) return {static_cast<const std::byte*>(mapped_), size_};
    return {owned_.data(), owned_.size()};
  }

  /// Unmaps / frees the backing storage; bytes() becomes empty.
  void reset() noexcept;

  /// Wraps an owned heap buffer (no mmap).  Used by the default
  /// FileSystem::map_read_only (fakes read the whole file) and by tests
  /// that build in-memory files.
  [[nodiscard]] static MappedFile from_buffer(std::vector<std::byte> buffer) {
    MappedFile file;
    file.owned_ = std::move(buffer);
    return file;
  }

 private:
  /// The one raw-mmap entry point, defined in file.cpp (the checked-I/O TU).
  friend Status map_file_read_only(const std::string& path, MappedFile& out);

  void* mapped_ = nullptr;  // non-null => mmap-backed
  std::size_t size_ = 0;
  std::vector<std::byte> owned_;  // heap-backed fallback (fakes, empty files)
};

/// mmaps `path` read-only (MAP_PRIVATE) into `out`, replacing its previous
/// contents.  Empty files succeed with an empty mapping.  Typed failures:
/// kNotFound for a missing path, kIoError for open/stat/map failures.
/// Prefer FileSystem::map_read_only, which routes through the seam so fault
/// injectors and fakes stay in the loop.
[[nodiscard]] Status map_file_read_only(const std::string& path, MappedFile& out);

/// Minimal filesystem surface the persistence layer needs.  Paths are plain
/// strings (UTF-8, '/'-separated) so fakes don't need std::filesystem.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Truncate-creates `path` for writing.
  [[nodiscard]] virtual Status open_for_write(const std::string& path,
                                              std::unique_ptr<WritableFile>& out) = 0;
  /// Reads the whole file into `out`: replaced on success, untouched on
  /// failure.
  [[nodiscard]] virtual Status read_file(const std::string& path,
                                         std::vector<std::byte>& out) = 0;
  /// POSIX rename semantics: atomic replace of `to` within one filesystem.
  [[nodiscard]] virtual Status rename_file(const std::string& from,
                                           const std::string& to) = 0;
  [[nodiscard]] virtual Status remove_file(const std::string& path) = 0;
  /// fsyncs a directory so a preceding rename/create/remove in it is
  /// durable (without this, a crash can roll the rename back).
  [[nodiscard]] virtual Status sync_dir(const std::string& path) = 0;
  [[nodiscard]] virtual Status create_directories(const std::string& path) = 0;
  /// Names (not paths) of regular files directly inside `path`, sorted.
  [[nodiscard]] virtual Status list_dir(const std::string& path,
                                        std::vector<std::string>& names) = 0;

  /// Read-only mapping of the whole file.  The default implementation reads
  /// the file into an owned buffer through read_file() — correct for any
  /// FileSystem, and what fakes/fault injectors inherit; the real
  /// filesystem overrides it with mmap so opening a multi-GB artifact costs
  /// page-table setup, not a copy.  `out` is replaced on success and
  /// untouched on failure.
  [[nodiscard]] virtual Status map_read_only(const std::string& path, MappedFile& out);
};

/// The process-wide real filesystem (stdio + POSIX fsync underneath).
[[nodiscard]] FileSystem& local_filesystem();

/// Crash-safe publish of `bytes` at `path` via the tmp/fsync/rename/dir-sync
/// protocol described in the header comment.  On failure the tmp file is
/// removed best-effort and `path` is untouched.  A stale `<path>.tmp` left
/// behind by a crashed or fault-interrupted previous writer is reclaimed
/// (removed) before the new write begins, so a poisoned tmp can neither
/// mask this publish nor survive it as garbage.
[[nodiscard]] Status atomic_write_file(FileSystem& fs, const std::string& path,
                                       std::span<const std::byte> bytes);

/// Appended to a file's name when it is quarantined (see quarantine_file).
inline constexpr std::string_view kQuarantineSuffix = ".quarantined";

/// Moves a file that failed validation ASIDE instead of deleting it:
/// `path` is renamed to `path + kQuarantineSuffix` and the typed error that
/// condemned it is recorded next to it in `path + ".quarantined.reason"`
/// (best-effort — the rename is the load-bearing step; losing the sidecar
/// costs context, not correctness).  Two properties this buys the restore
/// path: fallback never re-trips on the same corpse (the quarantined name
/// no longer parses as a loadable generation/artifact), and post-mortems
/// keep the evidence a delete would have destroyed.  Re-quarantining the
/// same path overwrites the previous corpse — it IS the same corpse.
[[nodiscard]] Status quarantine_file(FileSystem& fs, const std::string& path,
                                     const Status& why);

/// One injected fault, addressed by byte offset within the stream appended
/// to a single file.  The four kinds split along two axes — does the writer
/// SEE the failure, and does the tail of the data survive:
///
///   kind          writer sees   on-disk effect
///   kShortWrite   error         bytes [0, offset) persist, rest lost
///   kFailedSync   error         all bytes persist, durability unreported
///   kBitFlip      nothing       bit `bit` of byte `offset` inverted
///   kTruncate     nothing       bytes [offset, end) silently dropped
///   kNoSpace      error         bytes [0, offset) persist; EVERY further
///                               append is refused (ENOSPC: the device is
///                               full and stays full for this file)
///
/// The silent kinds model torn writes and media corruption that fsync
/// cannot report; only restore-time validation can catch them.  kNoSpace
/// differs from kShortWrite in persistence of the error: a short write
/// kills the file (subsequent appends report "file dead"), while ENOSPC
/// keeps refusing with the same typed error on every retry of the append —
/// the shape a real full disk presents to a retry loop.
struct FileFault {
  enum class Kind : std::uint8_t {
    kNone,
    kShortWrite,
    kFailedSync,
    kBitFlip,
    kTruncate,
    kNoSpace,
  };

  Kind kind = Kind::kNone;
  std::uint64_t offset = 0;
  /// Bit index within the byte, for kBitFlip.
  std::uint32_t bit = 0;
};

[[nodiscard]] std::string_view to_string(FileFault::Kind kind) noexcept;

/// A FileSystem decorator that injects one armed fault into the next file
/// opened for writing (and, optionally, fails the next rename).  Reads and
/// everything unarmed pass straight through, so a test drives the real save
/// path against the real disk with exactly one deterministic failure.
class FaultInjectingFileSystem final : public FileSystem {
 public:
  explicit FaultInjectingFileSystem(FileSystem& base) : base_(base) {}

  /// Arms `fault` for the next open_for_write.  Replaces any armed fault.
  void arm(FileFault fault) noexcept {
    armed_ = fault;
    fault_fired_ = false;
  }
  /// The next rename_file call fails with kIoError (models a crash between
  /// writing the tmp file and publishing it).
  void fail_next_rename() noexcept { fail_rename_ = true; }
  /// Like fail_next_rename(), but ALSO fails the very next remove_file of
  /// the rename's source path — so atomic_write_file's best-effort cleanup
  /// cannot collect the tmp and it survives on disk, exactly the debris a
  /// crash between "rename refused" and "tmp unlinked" leaves behind.  The
  /// next writer to the same path must reclaim it (pinned by file_test).
  void fail_next_rename_leaving_tmp() noexcept {
    fail_rename_ = true;
    keep_tmp_on_failed_rename_ = true;
  }
  /// The next `count` open_for_write calls fail with kIoError, then the
  /// write path recovers — the transient-then-recovering error class a
  /// retry-with-backoff policy exists for.
  void arm_transient_open_failures(std::size_t count) noexcept {
    transient_open_failures_ = count;
  }
  /// Same transient class on the publish step: the next `count` rename_file
  /// calls fail with kIoError, then renames succeed again.
  void arm_transient_rename_failures(std::size_t count) noexcept {
    transient_rename_failures_ = count;
  }
  /// True once an armed fault has actually triggered (offset reached, sync
  /// failed, open/rename refused) — lets tests assert the fault wasn't a
  /// no-op.
  [[nodiscard]] bool fault_fired() const noexcept { return fault_fired_; }

  /// The storm passes: clears every armed fault and transient counter so
  /// subsequent operations pass straight through.  fault_fired() keeps its
  /// value — it reports history, not armament.
  void disarm_all() noexcept {
    armed_ = FileFault{};
    fail_rename_ = false;
    keep_tmp_on_failed_rename_ = false;
    transient_open_failures_ = 0;
    transient_rename_failures_ = 0;
    protected_tmp_.clear();
  }

  [[nodiscard]] Status open_for_write(const std::string& path,
                                      std::unique_ptr<WritableFile>& out) override;
  [[nodiscard]] Status read_file(const std::string& path,
                                 std::vector<std::byte>& out) override;
  [[nodiscard]] Status rename_file(const std::string& from,
                                   const std::string& to) override;
  [[nodiscard]] Status remove_file(const std::string& path) override;
  [[nodiscard]] Status sync_dir(const std::string& path) override;
  [[nodiscard]] Status create_directories(const std::string& path) override;
  [[nodiscard]] Status list_dir(const std::string& path,
                                std::vector<std::string>& names) override;
  /// Reads pass straight through (faults target the write path); the base
  /// keeps its mmap fast path.
  [[nodiscard]] Status map_read_only(const std::string& path, MappedFile& out) override;

 private:
  FileSystem& base_;
  FileFault armed_{};
  bool fail_rename_ = false;
  bool keep_tmp_on_failed_rename_ = false;
  std::size_t transient_open_failures_ = 0;
  std::size_t transient_rename_failures_ = 0;
  /// Source path of a rename failed via fail_next_rename_leaving_tmp();
  /// the next remove_file of exactly this path is refused once.
  std::string protected_tmp_;
  bool fault_fired_ = false;
};

}  // namespace eyeball::util
