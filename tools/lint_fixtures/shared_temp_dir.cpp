// Lint fixture — must trigger: shared-temp-dir (and nothing else).
// The flagged calls name gtest's host-wide temp directory directly; the
// near misses (a mention in a comment or a string, an unrelated TempDir
// member, the per-process helper) must stay quiet.
// Never compiled; exercised by `eyeball_lint.py --self-test`.
#include <string>

#include <gtest/gtest.h>

#include "scratch.hpp"

struct Sandbox {
  std::string TempDir() const;
};

std::string flagged() {
  const std::string a = ::testing::TempDir() + "eyeball_fixed_name";  // BAD
  const std::string b = testing::TempDir();                          // BAD
  return a + b;
}

std::string quiet(const Sandbox& box) {
  // testing::TempDir() in a comment is not a call.
  const std::string note = "testing::TempDir() in a string is not a call";
  return eyeball::testing::scratch_path("fixture") + box.TempDir() + note;
}
