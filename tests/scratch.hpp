// Per-process scratch paths for tests that touch the real filesystem.
//
// gtest's TempDir() is one directory shared by every test binary on the
// host, so a fixed name under it is shared too: two build trees running the
// same test at once (a sanitizer tree beside the release tree) would delete
// and overwrite each other's files.  Every scratch path therefore lives in
// a directory named after the process id, and this header is the one place
// TempDir() is called (eyeball_lint's shared-temp-dir rule keeps it that
// way).
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace eyeball::testing {

namespace detail {

/// TempDir()/eyeball_<pid>: emptied when first used, removed with
/// everything in it when the process exits normally.
class ScratchRoot {
 public:
  ScratchRoot()
      : path_(::testing::TempDir() + "eyeball_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchRoot() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace detail

/// `name` inside this process's scratch directory, removed first (file or
/// directory tree), so each test starts from a path no other process
/// shares.
[[nodiscard]] inline std::string scratch_path(const std::string& name) {
  static const detail::ScratchRoot root;
  const std::string path = root.path() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

}  // namespace eyeball::testing
