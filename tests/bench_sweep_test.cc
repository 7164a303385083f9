// The sweep driver (bench/bench_common.h): field formats, the document
// it writes, and its exit status.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.h"

namespace {

using clampi::benchx::Fields;
using clampi::benchx::Sweep;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SweepDriver, FieldsKeepTheirFormats) {
  const Fields f = Fields()
                       .str("cell", "perf")
                       .num("skew", "%.2f", 0.5)
                       .num("fail_prob", "%g", 0.05)
                       .num("factor", "%f", 40.0)
                       .num("n", std::uint64_t{1} << 40)
                       .num("delta", -3)
                       .flag("crash", true);
  EXPECT_EQ(f.json(),
            "\"cell\":\"perf\",\"skew\":0.50,\"fail_prob\":0.05,"
            "\"factor\":40.000000,\"n\":1099511627776,\"delta\":-3,\"crash\":true");
  EXPECT_EQ(f.text(),
            "cell=perf skew=0.50 fail_prob=0.05 factor=40.000000 n=1099511627776 "
            "delta=-3 crash=true");
  EXPECT_TRUE(Fields().empty());
}

TEST(SweepDriver, WritesTheDocumentAndPasses) {
  const std::string path = testing::TempDir() + "sweep_driver_pass.json";
  char arg0[] = "demo_sweep";
  std::string arg1 = path;
  char* argv[] = {arg0, arg1.data()};
  Sweep sweep("demo_sweep", "unused.json", 2, argv);
  sweep.header(Fields().num("nkeys", 8).num("servers", 2));
  sweep.row(Fields().str("cell", "a").num("x", "%.2f", 1.25));
  sweep.row(Fields().str("cell", "b").num("x", "%.1f", 2.0));
  EXPECT_TRUE(sweep.gate(true, "never printed"));

  testing::internal::CaptureStdout();
  const int status = sweep.finish(Fields().num("mismatches", 0));
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string want =
      "{\"bench\":\"demo_sweep\",\"nkeys\":8,\"servers\":2,\"results\":[\n"
      "    {\"cell\":\"a\",\"x\":1.25},\n"
      "    {\"cell\":\"b\",\"x\":2.0}\n"
      "  ],\n"
      "  \"acceptance\":{\"mismatches\":0,\"pass\":true}}\n";
  EXPECT_EQ(status, 0);
  EXPECT_EQ(out, want);
  EXPECT_EQ(slurp(path), want);
}

TEST(SweepDriver, FailedGateExitsOne) {
  const std::string path = testing::TempDir() + "sweep_driver_fail.json";
  char arg0[] = "demo_sweep";
  std::string arg1 = path;
  char* argv[] = {arg0, arg1.data()};
  Sweep sweep("demo_sweep", "unused.json", 2, argv);
  sweep.row(Fields().num("lost", 3));

  testing::internal::CaptureStderr();
  EXPECT_FALSE(sweep.gate(false, "cell %s lost %d writes", "journal", 3));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, "demo_sweep: GATE FAILED: cell journal lost 3 writes\n");
  EXPECT_FALSE(sweep.passed());

  testing::internal::CaptureStdout();
  const int status = sweep.finish();
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(status, 1);
  EXPECT_EQ(slurp(path),
            "{\"bench\":\"demo_sweep\",\"results\":[\n"
            "    {\"lost\":3}\n"
            "  ],\n"
            "  \"acceptance\":{\"pass\":false}}\n");
}

TEST(SweepDriver, UnwritableOutputExitsOne) {
  char arg0[] = "demo_sweep";
  char arg1[] = "/nonexistent-dir/out.json";
  char* argv[] = {arg0, arg1};
  Sweep sweep("demo_sweep", "unused.json", 2, argv);
  testing::internal::CaptureStdout();
  EXPECT_EQ(sweep.finish(), 1);
  testing::internal::GetCapturedStdout();
}

TEST(SweepDriverDeathTest, MalformedScaleExitsTwo) {
  char arg0[] = "demo_sweep";
  char* argv[] = {arg0};
  EXPECT_EXIT(
      {
        setenv("CLAMPI_BENCH_SCALE", "abc", 1);
        Sweep sweep("demo_sweep", "unused.json", 1, argv);
      },
      testing::ExitedWithCode(2), "not a number in \\(0, 1\\]");
}

}  // namespace
