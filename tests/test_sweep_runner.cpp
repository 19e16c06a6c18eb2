// SweepRunner: grid shape, backend validation, error propagation, and
// the determinism contract — results are bit-identical for any thread
// count, including the rendered CSV bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/output_file.hpp"

namespace {

using namespace hmcs;
using runner::Backend;
using runner::PointContext;
using runner::PointResult;
using runner::RunnerOptions;
using runner::SweepResult;
using runner::SweepSpec;

/// Deterministic synthetic backend: latency is a pure function of the
/// configuration and the point seed, so any scheduling difference that
/// leaked into results would be visible.
class StubBackend : public Backend {
 public:
  explicit StubBackend(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override {
    ++calls;
    PointResult result;
    result.mean_latency_us = static_cast<double>(config.clusters) * 100.0 +
                             config.message_bytes / 64.0 +
                             static_cast<double>(ctx.seed % 97);
    return result;
  }

  mutable std::atomic<int> calls{0};

 private:
  std::string name_;
};

class ThrowingBackend : public Backend {
 public:
  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext&) const override {
    if (config.clusters == 8) throw std::runtime_error("boom at C=8");
    return PointResult{};
  }

 private:
  std::string name_ = "throwing";
};

SweepSpec small_spec() {
  SweepSpec spec;
  spec.id = "t";
  spec.axes.clusters = {1, 2, 4, 8};
  spec.axes.message_bytes = {1024.0, 512.0};
  spec.base_seed = 3;
  return spec;
}

TEST(SweepRunner, GridIsPointMajor) {
  const auto a = std::make_shared<StubBackend>("a");
  const auto b = std::make_shared<StubBackend>("b");
  const SweepResult result = run_sweep(small_spec(), {a, b});
  ASSERT_EQ(result.points.size(), 8u);
  ASSERT_EQ(result.cells.size(), 16u);
  EXPECT_EQ(result.backend_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(a->calls.load(), 8);
  EXPECT_EQ(b->calls.load(), 8);
  EXPECT_EQ(result.backend_index("b"), 1u);
  EXPECT_THROW(result.backend_index("c"), ConfigError);
  // Cell (point, backend) addressing agrees with the flat layout.
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    EXPECT_DOUBLE_EQ(result.at(p, 0).mean_latency_us,
                     result.at(p, 1).mean_latency_us);
  }
}

TEST(SweepRunner, RejectsDuplicateAndNullBackends) {
  const auto a = std::make_shared<StubBackend>("same");
  const auto b = std::make_shared<StubBackend>("same");
  EXPECT_THROW(run_sweep(small_spec(), {a, b}), ConfigError);
  EXPECT_THROW(run_sweep(small_spec(), {a, nullptr}), ConfigError);
  EXPECT_THROW(run_sweep(small_spec(), {}), ConfigError);
}

TEST(SweepRunner, PropagatesBackendExceptions) {
  const auto backend = std::make_shared<ThrowingBackend>();
  for (const std::uint32_t threads : {1u, 4u}) {
    RunnerOptions options;
    options.threads = threads;
    EXPECT_THROW(run_sweep(small_spec(), {backend}, options),
                 std::runtime_error);
  }
}

TEST(SweepRunner, ThreadCountNeverChangesResults) {
  const auto backend = std::make_shared<StubBackend>("stub");
  RunnerOptions serial;
  serial.threads = 1;
  const SweepResult reference = run_sweep(small_spec(), {backend}, serial);
  for (const std::uint32_t threads : {2u, 3u, 8u}) {
    RunnerOptions options;
    options.threads = threads;
    const SweepResult result = run_sweep(small_spec(), {backend}, options);
    ASSERT_EQ(result.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      // Byte-level equality: determinism means identical bits, not just
      // values within tolerance.
      EXPECT_EQ(std::memcmp(&result.cells[i].mean_latency_us,
                            &reference.cells[i].mean_latency_us,
                            sizeof(double)),
                0);
    }
  }
}

// The acceptance-criterion regression: a DES-backed fig6-style sweep
// rendered to CSV is byte-identical at 1 and 8 threads.
TEST(SweepRunner, DesSweepCsvIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.id = "fig6_small";
  spec.axes.clusters = {1, 2, 4, 8};
  spec.axes.message_bytes = {1024.0, 512.0};
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  spec.base_seed = 3;

  runner::DesBackend::Options des;
  des.sim.measured_messages = 400;
  des.sim.warmup_messages = 80;
  const std::vector<std::shared_ptr<Backend>> backends{
      std::make_shared<runner::AnalyticBackend>(),
      std::make_shared<runner::DesBackend>(des)};

  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions wide;
  wide.threads = 8;
  const std::string csv_serial =
      runner::sweep_csv(run_sweep(spec, backends, serial)).to_string();
  const std::string csv_wide =
      runner::sweep_csv(run_sweep(spec, backends, wide)).to_string();
  EXPECT_EQ(csv_serial, csv_wide);
  EXPECT_FALSE(csv_serial.empty());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(SweepReport, StreamedFilesMatchTheInMemoryRendering) {
  // Large enough that both files cross several output chunks.
  SweepSpec spec;
  spec.id = "report";
  spec.axes.clusters = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  for (int i = 0; i < 120; ++i) {
    spec.axes.message_bytes.push_back(64.0 + 17.25 * i);
  }
  spec.base_seed = 5;
  RunnerOptions options;
  options.threads = 2;
  const SweepResult result =
      run_sweep(spec,
                {std::make_shared<StubBackend>("a, \"quoted\""),
                 std::make_shared<StubBackend>("b")},
                options);

  const std::string dir = ::testing::TempDir() + "hmcs_report_stream";
  std::filesystem::remove_all(dir);
  std::ostringstream os;
  runner::print_sweep_report(os, result, dir + "/csv", dir + "/json");
  const std::string csv = read_file(dir + "/csv/report.csv");
  const std::string json = read_file(dir + "/json/report.json");
  EXPECT_GT(csv.size(), 2 * kOutputChunkBytes);
  EXPECT_GT(json.size(), 2 * kOutputChunkBytes);
  EXPECT_EQ(csv, runner::sweep_csv(result).to_string());
  EXPECT_EQ(json, runner::sweep_json(result) + "\n");

  // The table, then the two lines in their fixed order.
  const std::string tail = "series written to " + dir +
                           "/csv/report.csv\nrecord written to " + dir +
                           "/json/report.json\n";
  EXPECT_EQ(os.str(),
            "== report ==\n" + runner::render_sweep_table(result) + tail);
  std::filesystem::remove_all(dir);
}

TEST(SweepReport, FailedWritesRaiseTheirErrorsCsvFirst) {
  RunnerOptions options;
  options.threads = 1;
  const SweepResult result =
      run_sweep(small_spec(), {std::make_shared<StubBackend>("a")}, options);
  // A regular file where a directory should be: nothing can be written
  // below it.
  const std::string blocked = ::testing::TempDir() + "hmcs_report_blocked";
  std::ofstream(blocked) << "x";
  const std::string writable = ::testing::TempDir() + "hmcs_report_ok";

  const struct {
    std::string csv_dir;
    std::string json_dir;
    std::string error;
  } cases[] = {
      {blocked, "", "CsvWriter: cannot open '" + blocked + "/t.csv'"},
      {"", blocked,
       "print_sweep_report: cannot write '" + blocked + "/t.json'"},
      {blocked, blocked, "CsvWriter: cannot open '" + blocked + "/t.csv'"},
      {writable, blocked,
       "print_sweep_report: cannot write '" + blocked + "/t.json'"},
  };
  for (const auto& c : cases) {
    std::ostringstream os;
    try {
      runner::print_sweep_report(os, result, c.csv_dir, c.json_dir);
      ADD_FAILURE() << "no error for " << c.error;
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find(c.error), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(os.str().find("written to " + blocked), std::string::npos);
  }
  std::filesystem::remove(blocked);
  std::filesystem::remove_all(writable);
}

}  // namespace
