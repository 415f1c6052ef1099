// Unit coverage for the checked I/O layer: the Status taxonomy, CRC32C,
// the atomic-write protocol, and the exact semantics of every
// FaultInjectingFileSystem fault kind (which the snapshot fault harness
// builds on — if these semantics drift, that harness proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/status.hpp"
#include "scratch.hpp"

namespace eyeball {
namespace {

using util::FileFault;
using util::Status;
using util::StatusCode;

[[nodiscard]] std::vector<std::byte> bytes_of(std::string_view text) {
  std::vector<std::byte> out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

/// Fresh per-test scratch directory (removed up-front so reruns of the same
/// binary see the same filesystem state).
[[nodiscard]] std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::scratch_path("file_test_" + name);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Status, DefaultIsOkAndFactoriesCarryTheTaxonomy) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.to_string(), "OK");

  const Status corruption = Status::corruption("section 3 CRC mismatch");
  EXPECT_FALSE(corruption.ok());
  EXPECT_EQ(corruption.code(), StatusCode::kCorruption);
  EXPECT_EQ(corruption.to_string(), "CORRUPTION: section 3 CRC mismatch");

  EXPECT_EQ(Status::not_found("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::io_error("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::invalid_argument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::version_mismatch("x").code(), StatusCode::kVersionMismatch);
  EXPECT_EQ(Status::config_mismatch("x").code(), StatusCode::kConfigMismatch);
}

TEST(Status, WithContextPrependsButKeepsTheCode) {
  const Status inner = Status::io_error("fsync failed");
  const Status outer = inner.with_context("generation 7");
  EXPECT_EQ(outer.code(), StatusCode::kIoError);
  EXPECT_EQ(outer.message(), "generation 7: fsync failed");
  // OK statuses pass through untouched: context on success is noise.
  EXPECT_TRUE(Status{}.with_context("anything").ok());
}

TEST(Crc32c, MatchesThePublishedCheckValue) {
  // The iSCSI/RFC 3720 check value for "123456789".
  EXPECT_EQ(util::crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(util::crc32c({}), 0u);
}

TEST(Crc32c, SeedChainingEqualsOneShot) {
  const auto whole = bytes_of("eyeball ASes: from geography to connectivity");
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, whole.size() / 2,
                                  whole.size() - 1, whole.size()}) {
    const std::span<const std::byte> head{whole.data(), split};
    const std::span<const std::byte> tail{whole.data() + split, whole.size() - split};
    EXPECT_EQ(util::crc32c(tail, util::crc32c(head)), util::crc32c(whole))
        << "split at " << split;
  }
}

TEST(Crc32cFast, EqualsTheTableImplementationOverArbitraryInputs) {
  // The artifact open path (core/artifact.hpp) trusts crc32c_fast to be the
  // same function as crc32c — pin that equality across sizes that exercise
  // the 8-byte main loop, the byte tail, and the empty input, plus seeds.
  std::vector<std::byte> data;
  std::uint32_t state = 0x243f6a88U;  // deterministic pseudo-random fill
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{4097}}) {
    data.resize(size);
    for (auto& b : data) {
      state = state * 1664525U + 1013904223U;
      b = static_cast<std::byte>(state >> 24);
    }
    EXPECT_EQ(util::crc32c_fast(data), util::crc32c(data)) << "size " << size;
    EXPECT_EQ(util::crc32c_fast(data, 0x12345678U), util::crc32c(data, 0x12345678U))
        << "seeded, size " << size;
  }
  EXPECT_EQ(util::crc32c_fast(bytes_of("123456789")), 0xE3069283u);
}

TEST(AtomicWriteFile, PublishesBytesAndLeavesNoTemp) {
  const std::string dir = scratch_dir("publish");
  const std::string path = dir + "/data.bin";
  auto& fs = util::local_filesystem();
  const auto payload = bytes_of("hello, durable world");
  ASSERT_TRUE(util::atomic_write_file(fs, path, payload).ok());

  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Overwrite is a full replacement, not an append.
  const auto second = bytes_of("v2");
  ASSERT_TRUE(util::atomic_write_file(fs, path, second).ok());
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, second);
}

TEST(LocalFileSystem, MissingFileIsNotFoundAndListDirIsSorted) {
  const std::string dir = scratch_dir("listing");
  auto& fs = util::local_filesystem();
  std::vector<std::byte> out;
  EXPECT_EQ(fs.read_file(dir + "/absent", out).code(), StatusCode::kNotFound);

  std::vector<std::string> names;
  EXPECT_EQ(fs.list_dir(dir + "/no_such_dir", names).code(), StatusCode::kNotFound);

  ASSERT_TRUE(util::atomic_write_file(fs, dir + "/bb", bytes_of("2")).ok());
  ASSERT_TRUE(util::atomic_write_file(fs, dir + "/aa", bytes_of("1")).ok());
  ASSERT_TRUE(fs.list_dir(dir, names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"aa", "bb"}));
}

TEST(LocalFileSystem, FailedReadLeavesTheBufferUntouched) {
  const std::string dir = scratch_dir("read_failure");
  auto& fs = util::local_filesystem();
  const auto kept = bytes_of("old");
  std::vector<std::byte> out = kept;

  // A directory opens for reading and then fails at the first read.
  const Status directory = fs.read_file(dir, out);
  EXPECT_EQ(directory.code(), StatusCode::kIoError) << directory;
  EXPECT_EQ(out, kept);

  EXPECT_EQ(fs.read_file(dir + "/absent", out).code(), StatusCode::kNotFound);
  EXPECT_EQ(out, kept);
}

// ---- Read-only mappings: the artifact's zero-copy substrate. ----

TEST(MappedFile, MapsRealFilesAndReportsTypedFailures) {
  const std::string dir = scratch_dir("mmap");
  const std::string path = dir + "/image.bin";
  auto& fs = util::local_filesystem();
  const auto payload = bytes_of("mapped, not copied");
  ASSERT_TRUE(util::atomic_write_file(fs, path, payload).ok());

  util::MappedFile map;
  ASSERT_TRUE(util::map_file_read_only(path, map).ok());
  ASSERT_EQ(map.bytes().size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), map.bytes().begin()));

  // Missing path is kNotFound, and a failed map leaves `out` untouched.
  util::MappedFile untouched;
  EXPECT_EQ(util::map_file_read_only(dir + "/absent", untouched).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(untouched.bytes().empty());

  // Empty files map successfully to an empty span.
  ASSERT_TRUE(util::atomic_write_file(fs, dir + "/empty", {}).ok());
  util::MappedFile empty;
  ASSERT_TRUE(util::map_file_read_only(dir + "/empty", empty).ok());
  EXPECT_TRUE(empty.bytes().empty());
}

TEST(MappedFile, MoveTransfersTheMappingAndResetEmpties) {
  const std::string dir = scratch_dir("mmap_move");
  const std::string path = dir + "/image.bin";
  auto& fs = util::local_filesystem();
  const auto payload = bytes_of("ownership moves, bytes stay put");
  ASSERT_TRUE(util::atomic_write_file(fs, path, payload).ok());

  util::MappedFile a;
  ASSERT_TRUE(util::map_file_read_only(path, a).ok());
  const std::byte* const base = a.bytes().data();
  util::MappedFile b = std::move(a);
  EXPECT_EQ(b.bytes().data(), base);  // same mapping, no remap or copy
  EXPECT_EQ(b.bytes().size(), payload.size());
  EXPECT_TRUE(a.bytes().empty());  // NOLINT(bugprone-use-after-move): pinned empty

  b.reset();
  EXPECT_TRUE(b.bytes().empty());

  const auto buffer_backed = util::MappedFile::from_buffer(payload);
  ASSERT_EQ(buffer_backed.bytes().size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         buffer_backed.bytes().begin()));
}

TEST(FileSystem, MapReadOnlyRoutesThroughTheSeam) {
  const std::string dir = scratch_dir("map_seam");
  const std::string path = dir + "/image.bin";
  auto& local = util::local_filesystem();
  const auto payload = bytes_of("same bytes through every backend");
  ASSERT_TRUE(util::atomic_write_file(local, path, payload).ok());

  // The real filesystem's override (mmap) and the base-class default (read
  // into an owned buffer, reached here via the fault injector, which adds
  // no read-side faults) must produce identical bytes.
  util::MappedFile mapped;
  ASSERT_TRUE(local.map_read_only(path, mapped).ok());
  util::FaultInjectingFileSystem faulty{local};
  util::MappedFile buffered;
  ASSERT_TRUE(faulty.map_read_only(path, buffered).ok());
  ASSERT_EQ(mapped.bytes().size(), buffered.bytes().size());
  EXPECT_TRUE(std::equal(mapped.bytes().begin(), mapped.bytes().end(),
                         buffered.bytes().begin()));

  util::MappedFile missing;
  EXPECT_EQ(faulty.map_read_only(dir + "/absent", missing).code(),
            StatusCode::kNotFound);
}

// ---- Fault kinds: the exact writer-visible / on-disk split the harness
// relies on (see the table in util/file.hpp). ----

TEST(FaultInjection, ShortWriteReportsAnErrorAndAtomicWritePublishesNothing) {
  const std::string dir = scratch_dir("short_write");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kShortWrite, 5, 0});

  const Status status = util::atomic_write_file(fs, path, bytes_of("0123456789"));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  // The protocol held: the failed write never reached the published name,
  // and the temp was cleaned up.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FaultInjection, FailedSyncReportsAnErrorAndPublishesNothing) {
  const std::string dir = scratch_dir("failed_sync");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kFailedSync, 0, 0});

  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("0123456789")).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FaultInjection, BitFlipIsSilentAndChangesExactlyOneBit) {
  const std::string dir = scratch_dir("bit_flip");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kBitFlip, 3, 6});

  const auto payload = bytes_of("0123456789");
  // Silent: the writer sees full success...
  ASSERT_TRUE(util::atomic_write_file(fs, path, payload).ok());
  EXPECT_TRUE(fs.fault_fired());

  // ...but the disk is lying, in exactly one bit.
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  ASSERT_EQ(read_back.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(read_back[i], payload[i] ^ std::byte{1U << 6}) << "byte " << i;
    } else {
      EXPECT_EQ(read_back[i], payload[i]) << "byte " << i;
    }
  }
}

TEST(FaultInjection, TruncateIsSilentAndDropsTheTail) {
  const std::string dir = scratch_dir("truncate");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kTruncate, 4, 0});

  // Silent: success reported, so the torn file gets renamed into place —
  // the torn-write case the snapshot layer must catch at restore time.
  ASSERT_TRUE(util::atomic_write_file(fs, path, bytes_of("0123456789")).ok());
  EXPECT_TRUE(fs.fault_fired());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("0123"));
}

TEST(FaultInjection, FaultBeyondTheStreamNeverFires) {
  const std::string dir = scratch_dir("no_fire");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kBitFlip, 1000, 0});

  const auto payload = bytes_of("short");
  ASSERT_TRUE(util::atomic_write_file(fs, path, payload).ok());
  EXPECT_FALSE(fs.fault_fired());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, payload);
}

TEST(FaultInjection, FailNextRenameBlocksPublication) {
  const std::string dir = scratch_dir("rename");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.fail_next_rename();

  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("x")).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  EXPECT_FALSE(std::filesystem::exists(path));

  // One-shot: the next write goes through.
  EXPECT_TRUE(util::atomic_write_file(fs, path, bytes_of("x")).ok());
}

TEST(FaultInjection, FaultArmsTheNextOpenOnly) {
  const std::string dir = scratch_dir("one_shot");
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kShortWrite, 0, 0});

  EXPECT_FALSE(util::atomic_write_file(fs, dir + "/a", bytes_of("aaaa")).ok());
  // The armed fault was consumed by the first open.
  EXPECT_TRUE(util::atomic_write_file(fs, dir + "/b", bytes_of("bbbb")).ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(dir + "/b", read_back).ok());
  EXPECT_EQ(read_back, bytes_of("bbbb"));
}

TEST(FaultInjection, NoSpaceKeepsRefusingEveryFurtherAppend) {
  // ENOSPC differs from a short write in PERSISTENCE of the error: the
  // prefix that fit stays written, and every retried append re-fails with
  // the same typed error — the shape a retry loop sees from a full disk.
  const std::string dir = scratch_dir("no_space");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm(FileFault{FileFault::Kind::kNoSpace, 4, 0});

  std::unique_ptr<util::WritableFile> file;
  ASSERT_TRUE(fs.open_for_write(path, file).ok());
  const auto payload = bytes_of("0123456789");
  const Status first = file->append(payload);
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  // The device stays full: identical typed refusal on every retry.
  for (int retry = 0; retry < 3; ++retry) {
    EXPECT_EQ(file->append(payload), first) << "retry " << retry;
  }
  ASSERT_TRUE(file->close().ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("0123"));  // the prefix persisted exactly once

  // Through the atomic protocol the failure stays clean: nothing published.
  fs.arm(FileFault{FileFault::Kind::kNoSpace, 2, 0});
  EXPECT_EQ(util::atomic_write_file(fs, dir + "/atomic.bin", payload).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/atomic.bin"));
}

TEST(FaultInjection, TransientOpenFailuresRecoverAfterCount) {
  const std::string dir = scratch_dir("transient_open");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm_transient_open_failures(2);

  // Exactly two refusals, then the write path heals — the error class a
  // retry-with-backoff policy exists for.
  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("x")).code(),
            StatusCode::kIoError);
  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("x")).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  ASSERT_TRUE(util::atomic_write_file(fs, path, bytes_of("healed")).ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("healed"));
}

TEST(FaultInjection, TransientRenameFailuresRecoverAfterCount) {
  const std::string dir = scratch_dir("transient_rename");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.arm_transient_rename_failures(1);

  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("x")).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(util::atomic_write_file(fs, path, bytes_of("y")).ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("y"));
}

TEST(FaultInjection, FailedRenameCanLeaveThePoisonedTmpBehind) {
  // fail_next_rename_leaving_tmp models the crash window between "rename
  // refused" and "tmp unlinked": the cleanup is also refused once, so the
  // tmp survives as debris.  The NEXT atomic_write_file to the same path
  // must reclaim it — a poisoned tmp can neither mask nor corrupt a later
  // publish.
  const std::string dir = scratch_dir("tmp_left_behind");
  const std::string path = dir + "/data.bin";
  util::FaultInjectingFileSystem fs{util::local_filesystem()};
  fs.fail_next_rename_leaving_tmp();

  EXPECT_EQ(util::atomic_write_file(fs, path, bytes_of("poison")).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs.fault_fired());
  // The debris is real: the tmp holds the failed write's full payload.
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path));
  std::vector<std::byte> tmp_bytes;
  ASSERT_TRUE(fs.read_file(path + ".tmp", tmp_bytes).ok());
  EXPECT_EQ(tmp_bytes, bytes_of("poison"));

  // Reclaim: the next write publishes ITS bytes and clears the corpse.
  ASSERT_TRUE(util::atomic_write_file(fs, path, bytes_of("fresh")).ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("fresh"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWriteFile, ReclaimsAStaleTmpFromACrashedWriter) {
  // A stale tmp can also appear with no fault injector at all (a previous
  // process died between write and rename).  Plant one directly.
  const std::string dir = scratch_dir("stale_tmp");
  const std::string path = dir + "/data.bin";
  auto& fs = util::local_filesystem();
  std::unique_ptr<util::WritableFile> tmp;
  ASSERT_TRUE(fs.open_for_write(path + ".tmp", tmp).ok());
  ASSERT_TRUE(tmp->append(bytes_of("stale garbage")).ok());
  ASSERT_TRUE(tmp->close().ok());

  ASSERT_TRUE(util::atomic_write_file(fs, path, bytes_of("current")).ok());
  std::vector<std::byte> read_back;
  ASSERT_TRUE(fs.read_file(path, read_back).ok());
  EXPECT_EQ(read_back, bytes_of("current"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(QuarantineFile, MovesTheFileAsideAndRecordsWhy) {
  const std::string dir = scratch_dir("quarantine");
  const std::string path = dir + "/snapshot.bad";
  auto& fs = util::local_filesystem();
  ASSERT_TRUE(util::atomic_write_file(fs, path, bytes_of("damaged")).ok());

  const Status why = Status::corruption("whole-file CRC mismatch");
  ASSERT_TRUE(util::quarantine_file(fs, path, why).ok());

  // Moved, not deleted: the evidence survives under the quarantine name.
  EXPECT_FALSE(std::filesystem::exists(path));
  const std::string aside = path + std::string{util::kQuarantineSuffix};
  std::vector<std::byte> preserved;
  ASSERT_TRUE(fs.read_file(aside, preserved).ok());
  EXPECT_EQ(preserved, bytes_of("damaged"));

  // The reason sidecar carries the typed verdict for the post-mortem.
  std::vector<std::byte> reason;
  ASSERT_TRUE(fs.read_file(aside + ".reason", reason).ok());
  const std::string reason_text{reinterpret_cast<const char*>(reason.data()),
                                reason.size()};
  EXPECT_NE(reason_text.find("CORRUPTION"), std::string::npos);
  EXPECT_NE(reason_text.find("CRC mismatch"), std::string::npos);

  // Quarantining a missing file is a typed failure, not a crash.
  EXPECT_FALSE(util::quarantine_file(fs, path, why).ok());
  EXPECT_FALSE(util::quarantine_file(fs, "", why).ok());
}

TEST(Status, InternalIsATypedNonRetriableVerdict) {
  const Status internal = Status::internal("analysis threw mid-publish");
  EXPECT_FALSE(internal.ok());
  EXPECT_EQ(internal.code(), StatusCode::kInternal);
  EXPECT_EQ(internal.to_string(), "INTERNAL: analysis threw mid-publish");
}

}  // namespace
}  // namespace eyeball
