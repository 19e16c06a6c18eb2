// Fault-tolerant sweep execution (docs/ROBUSTNESS.md): per-cell error
// isolation under collect-all, the deterministic retry protocol,
// cooperative deadlines, sweep cancellation, validity guardrails, and
// the checkpoint journal's interrupted-run → resume → bit-identical
// contract — all asserted at 1 and 8 worker threads.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "fault_injection.hpp"
#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs;
using runner::Backend;
using runner::CellStatus;
using runner::FailurePolicy;
using runner::PointContext;
using runner::PointResult;
using runner::RunnerOptions;
using runner::SweepResult;
using runner::SweepSpec;
using test::FaultInjectionBackend;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.id = "ft";
  spec.axes.clusters = {1, 2, 4, 8};
  spec.axes.message_bytes = {1024.0, 512.0};
  spec.base_seed = 11;
  return spec;
}

std::shared_ptr<FaultInjectionBackend> make_faulty(
    FaultInjectionBackend::Options options) {
  return std::make_shared<FaultInjectionBackend>(std::move(options));
}

/// Synthetic backend whose results trip the validity guardrails on
/// chosen points.
class SuspectBackend : public Backend {
 public:
  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig&,
                      const PointContext& ctx) const override {
    PointResult result;
    result.mean_latency_us = 10.0 + static_cast<double>(ctx.index);
    if (ctx.index == 1) result.converged = false;
    if (ctx.index == 2) result.max_center_utilization = 1.0;
    if (ctx.index == 3) result.max_center_utilization = 0.97;
    return result;
  }

 private:
  std::string name_ = "suspect";
};

// ---------------------------------------------------------------------
// Isolation: a throwing / NaN cell fails alone under collect-all, and
// the surviving cells are identical at 1 and 8 threads.

TEST(FaultTolerance, CollectAllIsolatesFaultyCells) {
  for (const std::uint32_t threads : {1u, 8u}) {
    FaultInjectionBackend::Options faults;
    faults.throw_config_on = {2};
    faults.throw_logic_on = {5};
    faults.nan_on = {6};
    const auto backend = make_faulty(faults);

    RunnerOptions options;
    options.threads = threads;
    options.on_error = FailurePolicy::kCollectAll;
    const SweepResult result = run_sweep(small_spec(), {backend}, options);

    ASSERT_EQ(result.cells.size(), 8u);
    EXPECT_EQ(result.at(2, 0).status, CellStatus::kFailed);
    EXPECT_NE(result.at(2, 0).error.find("config fault at point 2"),
              std::string::npos);
    EXPECT_EQ(result.at(5, 0).status, CellStatus::kFailed);
    // A NaN mean is a guardrail demotion, not a failure: the cell ran.
    EXPECT_EQ(result.at(6, 0).status, CellStatus::kDegraded);
    EXPECT_NE(result.at(6, 0).error.find("non-finite"), std::string::npos);
    for (const std::size_t p : {0u, 1u, 3u, 4u, 7u}) {
      EXPECT_EQ(result.at(p, 0).status, CellStatus::kOk) << "point " << p;
      EXPECT_EQ(result.at(p, 0).attempts, 1u);
      EXPECT_TRUE(std::isfinite(result.at(p, 0).mean_latency_us));
    }
    EXPECT_EQ(result.count_status(CellStatus::kFailed), 2u);
    EXPECT_EQ(result.count_status(CellStatus::kDegraded), 1u);
    EXPECT_FALSE(result.all_evaluated());
  }
}

TEST(FaultTolerance, CollectAllCsvIsByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const std::uint32_t threads : {1u, 8u}) {
    FaultInjectionBackend::Options faults;
    faults.throw_config_on = {2};
    faults.nan_on = {6};
    RunnerOptions options;
    options.threads = threads;
    options.on_error = FailurePolicy::kCollectAll;
    const std::string csv =
        runner::sweep_csv(run_sweep(small_spec(), {make_faulty(faults)},
                                    options))
            .to_string();
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference);
    }
  }
  EXPECT_NE(reference.find("failed"), std::string::npos);
  EXPECT_NE(reference.find("degraded"), std::string::npos);
}

TEST(FaultTolerance, FailFastRethrowsTheInjectedType) {
  FaultInjectionBackend::Options faults;
  faults.throw_logic_on = {3};
  for (const std::uint32_t threads : {1u, 8u}) {
    RunnerOptions options;
    options.threads = threads;
    options.on_error = FailurePolicy::kFailFast;
    EXPECT_THROW(run_sweep(small_spec(), {make_faulty(faults)}, options),
                 LogicError);
  }
}

// ---------------------------------------------------------------------
// Retry: transient faults heal within the attempt budget, and every
// attempt's seed follows retry_point_seed exactly.

TEST(FaultTolerance, RetryHealsTransientFaultsDeterministically) {
  for (const std::uint32_t threads : {1u, 8u}) {
    FaultInjectionBackend::Options faults;
    faults.throw_logic_on = {3};
    faults.heal_after_attempts = 1;  // attempt 1 faults, attempt 2 heals
    const auto backend = make_faulty(faults);

    RunnerOptions options;
    options.threads = threads;
    options.on_error = FailurePolicy::kCollectAll;
    options.max_attempts = 3;
    const SweepResult result = run_sweep(small_spec(), {backend}, options);

    EXPECT_EQ(result.at(3, 0).status, CellStatus::kOk);
    EXPECT_EQ(result.at(3, 0).attempts, 2u);
    EXPECT_TRUE(result.all_evaluated());

    // The call log (sorted by point, attempt) is scheduling-independent:
    // 8 single-attempt points plus one retry.
    const auto calls = backend->calls();
    ASSERT_EQ(calls.size(), 9u);
    for (const auto& call : calls) {
      EXPECT_EQ(call.seed,
                runner::retry_point_seed(result.points[call.point].seed,
                                         call.attempt));
    }
    // Attempt 1 uses the point seed verbatim (the no-fault bit-identity
    // guarantee); attempt 2 re-derives through SplitMix64.
    const std::uint64_t point_seed = result.points[3].seed;
    EXPECT_EQ(runner::retry_point_seed(point_seed, 1), point_seed);
    simcore::SplitMix64 mix(point_seed ^ 2u);
    EXPECT_EQ(runner::retry_point_seed(point_seed, 2), mix.next());
  }
}

TEST(FaultTolerance, PersistentFaultExhaustsTheAttemptBudget) {
  FaultInjectionBackend::Options faults;
  faults.throw_logic_on = {3};  // heal_after_attempts = 0: faults forever
  const auto backend = make_faulty(faults);

  RunnerOptions options;
  options.threads = 2;
  options.on_error = FailurePolicy::kCollectAll;
  options.max_attempts = 3;
  const SweepResult result = run_sweep(small_spec(), {backend}, options);

  EXPECT_EQ(result.at(3, 0).status, CellStatus::kFailed);
  EXPECT_EQ(result.at(3, 0).attempts, 3u);
  EXPECT_EQ(backend->calls().size(), 7u + 3u);
}

// ---------------------------------------------------------------------
// Deadline and cancellation.

TEST(FaultTolerance, DeadlineMarksHangingCellTimedOut) {
  for (const std::uint32_t threads : {1u, 8u}) {
    FaultInjectionBackend::Options faults;
    faults.hang_on = {1};
    RunnerOptions options;
    options.threads = threads;
    options.on_error = FailurePolicy::kCollectAll;
    options.cell_deadline_ms = 25.0;
    const SweepResult result =
        run_sweep(small_spec(), {make_faulty(faults)}, options);

    EXPECT_EQ(result.at(1, 0).status, CellStatus::kTimedOut);
    EXPECT_EQ(result.count_status(CellStatus::kOk), 7u);
  }
}

TEST(FaultTolerance, TimedOutCellTriggersFailFast) {
  FaultInjectionBackend::Options faults;
  faults.hang_on = {1};
  RunnerOptions options;
  options.threads = 2;
  options.on_error = FailurePolicy::kFailFast;
  options.cell_deadline_ms = 25.0;
  EXPECT_THROW(run_sweep(small_spec(), {make_faulty(faults)}, options),
               DeadlineExceeded);
}

TEST(FaultTolerance, SweepCancelSkipsRemainingCells) {
  FaultInjectionBackend::Options faults;
  faults.hang_on = {0};  // first point hangs until the sweep is cancelled
  const auto backend = make_faulty(faults);

  util::CancelToken interrupt;
  RunnerOptions options;
  options.threads = 1;  // serial: nothing after the hang can have run
  options.cancel = &interrupt;
  std::thread canceller([&interrupt] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    interrupt.cancel();
  });
  const SweepResult result = run_sweep(small_spec(), {backend}, options);
  canceller.join();

  // No throw even under fail-fast: the caller gets the partial grid.
  EXPECT_EQ(result.count_status(CellStatus::kSkipped), 8u);
  EXPECT_EQ(result.at(0, 0).status, CellStatus::kSkipped);
}

// ---------------------------------------------------------------------
// Validity guardrails.

TEST(FaultTolerance, GuardrailsDemoteSuspectResults) {
  RunnerOptions options;
  options.threads = 1;
  const SweepResult result =
      run_sweep(small_spec(), {std::make_shared<SuspectBackend>()}, options);

  EXPECT_EQ(result.at(0, 0).status, CellStatus::kOk);
  EXPECT_EQ(result.at(1, 0).status, CellStatus::kDegraded);
  EXPECT_NE(result.at(1, 0).error.find("converge"), std::string::npos);
  EXPECT_EQ(result.at(2, 0).status, CellStatus::kDegraded);
  EXPECT_NE(result.at(2, 0).error.find("saturated"), std::string::npos);
  // Below the threshold: not degraded.
  EXPECT_EQ(result.at(3, 0).status, CellStatus::kOk);
  // Degraded cells keep their numbers and never trip fail-fast.
  EXPECT_TRUE(result.all_evaluated());
  EXPECT_DOUBLE_EQ(result.at(1, 0).mean_latency_us, 11.0);
}

TEST(FaultTolerance, GuardrailThresholdIsConfigurable) {
  RunnerOptions options;
  options.threads = 1;
  options.degraded_utilization = 0.95;
  const SweepResult result =
      run_sweep(small_spec(), {std::make_shared<SuspectBackend>()}, options);
  EXPECT_EQ(result.at(3, 0).status, CellStatus::kDegraded);
}

TEST(FaultTolerance, ReportsSurfaceStatusAndConvergence) {
  RunnerOptions options;
  options.threads = 1;
  const SweepResult result =
      run_sweep(small_spec(), {std::make_shared<SuspectBackend>()}, options);

  const std::string table = runner::render_sweep_table(result);
  EXPECT_NE(table.find("Conv suspect"), std::string::npos);
  EXPECT_NE(table.find("Status suspect"), std::string::npos);
  const std::string csv = runner::sweep_csv(result).to_string();
  EXPECT_NE(csv.find("suspect_converged"), std::string::npos);
  EXPECT_NE(csv.find("suspect_status"), std::string::npos);
  const std::string json = runner::sweep_json(result);
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint journal: interrupted run → resume → bit-identical output.

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

TEST(FaultTolerance, JournalRoundTripsEveryCell) {
  const std::string path = temp_path("hmcs_journal_roundtrip.jsonl");
  const auto backend = make_faulty({});  // healthy synthetic backend

  runner::JournalWriter::Shape shape;
  shape.id = "ft";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  runner::JournalWriter writer(path, shape, /*append=*/false);

  RunnerOptions options;
  options.threads = 2;
  options.journal = &writer;
  const SweepResult reference = run_sweep(small_spec(), {backend}, options);

  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  EXPECT_EQ(journal.id, "ft");
  EXPECT_EQ(journal.points, 8u);
  ASSERT_EQ(journal.cells.size(), 8u);
  EXPECT_EQ(journal.completed(), 8u);
  for (std::size_t i = 0; i < journal.cells.size(); ++i) {
    ASSERT_TRUE(journal.cells[i].has_value());
    // Bit-exact doubles and u64 seeds through the JSON-lines encoding.
    EXPECT_DOUBLE_EQ(journal.cells[i]->mean_latency_us,
                     reference.cells[i].mean_latency_us);
    EXPECT_EQ(journal.seeds[i], reference.points[i].seed);
  }
}

TEST(FaultTolerance, JournalRoundTripsNaN) {
  const std::string path = temp_path("hmcs_journal_nan.jsonl");
  FaultInjectionBackend::Options faults;
  faults.nan_on = {4};

  runner::JournalWriter::Shape shape;
  shape.id = "ft";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  runner::JournalWriter writer(path, shape, /*append=*/false);

  RunnerOptions options;
  options.threads = 1;
  options.on_error = FailurePolicy::kCollectAll;
  options.journal = &writer;
  run_sweep(small_spec(), {make_faulty(faults)}, options);

  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  ASSERT_TRUE(journal.cells[4].has_value());
  EXPECT_EQ(journal.cells[4]->status, CellStatus::kDegraded);
  EXPECT_TRUE(std::isnan(journal.cells[4]->mean_latency_us));
}

// The acceptance criterion: kill at ~50%, resume, and the merged
// output is byte-identical to an uninterrupted run at any thread count.
TEST(FaultTolerance, ResumedSweepIsByteIdenticalToUninterrupted) {
  const SweepSpec spec = small_spec();
  RunnerOptions plain;
  plain.threads = 1;
  const SweepResult uninterrupted = run_sweep(spec, {make_faulty({})}, plain);
  const std::string reference_csv =
      runner::sweep_csv(uninterrupted).to_string();

  // Simulate the interrupted first run: journal only the first half of
  // the cells (a real SIGINT run journals whatever finished; which
  // cells those are does not matter for the contract).
  const std::string path = temp_path("hmcs_journal_resume.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = spec.id;
  shape.points = 8;
  shape.backend_names = {"faulty"};
  {
    runner::JournalWriter writer(path, shape, /*append=*/false);
    for (std::size_t cell = 0; cell < 4; ++cell) {
      writer.record(cell, uninterrupted.points[cell].seed,
                    uninterrupted.cells[cell]);
    }
  }

  for (const std::uint32_t threads : {1u, 8u}) {
    const runner::SweepJournal journal = runner::load_sweep_journal(path);
    EXPECT_EQ(journal.completed(), 4u);

    const auto backend = make_faulty({});
    RunnerOptions options;
    options.threads = threads;
    options.resume = &journal;
    const SweepResult resumed = run_sweep(spec, {backend}, options);

    // Journaled cells were not re-executed...
    EXPECT_EQ(backend->calls().size(), 4u);
    for (const auto& call : backend->calls()) EXPECT_GE(call.point, 4u);
    // ...and the merged artifacts are byte-identical.
    EXPECT_EQ(runner::sweep_csv(resumed).to_string(), reference_csv);
    EXPECT_EQ(runner::sweep_json(resumed), runner::sweep_json(uninterrupted));
  }
}

TEST(FaultTolerance, JournalToleratesTruncatedFinalLine) {
  const std::string path = temp_path("hmcs_journal_truncated.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = "ft";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  {
    runner::JournalWriter writer(path, shape, /*append=*/false);
    PointResult cell;
    cell.mean_latency_us = 42.0;
    cell.attempts = 1;
    writer.record(0, 123, cell);
  }
  // A SIGKILL mid-write leaves a partial trailing line.
  std::ofstream(path, std::ios::app) << "{\"cell\":1,\"seed\":\"45";

  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  EXPECT_EQ(journal.completed(), 1u);
  ASSERT_TRUE(journal.cells[0].has_value());
  EXPECT_DOUBLE_EQ(journal.cells[0]->mean_latency_us, 42.0);
}

TEST(FaultTolerance, AppendingAfterATruncatedLineKeepsTheJournalLoadable) {
  const std::string path = temp_path("hmcs_journal_append_truncated.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = "ft";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  PointResult cell;
  cell.mean_latency_us = 42.0;
  cell.attempts = 1;
  {
    runner::JournalWriter writer(path, shape, /*append=*/false);
    writer.record(0, 123, cell);
  }
  std::ofstream(path, std::ios::app) << "{\"cell\":1,\"seed\":\"45";
  {
    // What a resume does: append to the interrupted run's journal.
    runner::JournalWriter writer(path, shape, /*append=*/true);
    writer.record(1, 456, cell);
  }
  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  EXPECT_EQ(journal.completed(), 2u);
  EXPECT_EQ(journal.seeds[1], 456u);
}

TEST(FaultTolerance, ResumeRejectsMismatchedJournals) {
  const std::string path = temp_path("hmcs_journal_mismatch.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = "other_sweep";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  {
    runner::JournalWriter writer(path, shape, /*append=*/false);
    PointResult cell;
    writer.record(0, 999, cell);
  }
  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  RunnerOptions options;
  options.threads = 1;
  options.resume = &journal;
  EXPECT_THROW(run_sweep(small_spec(), {make_faulty({})}, options),
               ConfigError);
}

TEST(FaultTolerance, OversizedJournalHeadersAreRejectedBeforeAllocation) {
  // A header sizes the cell table (points x backends cells). Checked
  // against the resumed sweep's shape, a header claiming 2^40 points is
  // refused before that table exists; unchecked it could only end in
  // std::bad_alloc. A product that overflows is refused by both loaders.
  const std::string path = temp_path("hmcs_journal_oversized.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = "ft";
  shape.points = 8;
  shape.backend_names = {"faulty"};
  const auto write_header = [&](const std::string& points,
                                const std::string& backends) {
    std::ofstream(path, std::ios::trunc)
        << R"({"journal":"hmcs-sweep","version":1,"id":"ft","points":)"
        << points << R"(,"backends":)" << backends << "}\n";
  };

  // Whether loading (against `expected` when given) throws a ConfigError
  // that names `reason`.
  const auto refuses = [&](const runner::JournalWriter::Shape* expected,
                           const std::string& reason) {
    try {
      if (expected != nullptr) {
        runner::load_sweep_journal(path, *expected);
      } else {
        runner::load_sweep_journal(path);
      }
    } catch (const ConfigError& error) {
      const std::string message = error.what();
      if (message.find(reason) != std::string::npos) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure() << message;
    }
    return ::testing::AssertionFailure() << "no ConfigError";
  };

  write_header("8", R"(["faulty"])");
  EXPECT_EQ(runner::load_sweep_journal(path, shape).cells.size(), 8u);

  write_header("1099511627776", R"(["faulty"])");  // 2^40 points
  EXPECT_TRUE(refuses(&shape, "header has 1099511627776 points"));
  write_header("8", R"(["faulty","other"])");
  EXPECT_TRUE(refuses(&shape, "different backend set"));

  // 2^63 points x 2 backends wraps to 0 in 64 bits.
  write_header(R"("9223372036854775808")", R"(["faulty","other"])");
  EXPECT_TRUE(refuses(nullptr, "overflows"));
  EXPECT_TRUE(refuses(&shape, "overflows"));
}

}  // namespace
