// The bench regression gate, end to end: `bench_diff` over small
// `lclscape.bench.v1` documents.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace {

class BenchDiffCliTest : public ::testing::Test {
 protected:
  /// Per-test scratch directory: ctest runs these as parallel processes.
  std::string dir() const {
    return ::testing::TempDir() + "lcl_bench_diff_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void SetUp() override {
    std::filesystem::remove_all(dir());
    std::filesystem::create_directories(dir());
  }

  /// Writes a bench document with the given (name, real_time ms) rows.
  std::string write_doc(const std::string& file,
                        const std::vector<std::pair<std::string, double>>&
                            rows) const {
    const std::string path = dir() + "/" + file;
    std::ofstream out(path);
    out << R"({"schema":"lclscape.bench.v1","benchmarks":[)";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << (i > 0 ? "," : "") << R"({"name":")" << rows[i].first
          << R"(","real_time":)" << rows[i].second
          << R"(,"time_unit":"ms"})";
    }
    out << "]}\n";
    return path;
  }

  static int run(const std::string& args) {
    const std::string command =
        std::string(LCL_BENCH_DIFF_PATH) + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
  }
};

TEST_F(BenchDiffCliTest, MatchingRowsWithinTheLimitPass) {
  const auto base = write_doc("base.json", {{"BM_A", 10.0}, {"BM_B", 4.0}});
  const auto current =
      write_doc("current.json", {{"BM_A", 12.0}, {"BM_B", 4.0}, {"BM_New", 1.0}});
  EXPECT_EQ(run(" --baseline=" + base + " --current=" + current), 0);
}

TEST_F(BenchDiffCliTest, RegressionPastTheLimitFails) {
  const auto base = write_doc("base.json", {{"BM_A", 10.0}});
  const auto current = write_doc("current.json", {{"BM_A", 13.0}});
  EXPECT_EQ(run(" --baseline=" + base + " --current=" + current), 1);
}

TEST_F(BenchDiffCliTest, BaselineRowMissingFromTheRunFails) {
  // Renaming or dropping a pinned bench must not drop its gate silently.
  const auto base = write_doc("base.json", {{"BM_A", 10.0}, {"BM_B", 4.0}});
  const auto current = write_doc("current.json", {{"BM_A", 10.0}});
  EXPECT_EQ(run(" --baseline=" + base + " --current=" + current), 1);
}

}  // namespace
