// Per-process scratch directory for tests that write files.
//
// gtest_discover_tests runs every TEST in its own process and `ctest -j`
// runs those processes concurrently, so a fixed name under
// ::testing::TempDir() is shared between them: one process rewrites or
// removes a file while another is reading it. test_temp_dir() instead
// gives each process its own mkdtemp directory, created on first use and
// removed (recursively) when the process exits normally.
#pragma once

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace misuse::testing_support {

/// This process's private directory, with a trailing '/'.
inline const std::string& test_temp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir() + "misusedet_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " + ::testing::TempDir());
      }
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside test_temp_dir() (not created).
inline std::string test_temp_path(std::string_view name) {
  return test_temp_dir() + std::string(name);
}

}  // namespace misuse::testing_support
