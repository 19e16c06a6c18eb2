// The batched Backend path (Backend::evaluate_batch + RunnerOptions::
// batch_cells): a batched analytic sweep is bit-identical to the
// per-cell run — values, statuses, attempts — at any chunk size and
// thread count; chunks containing resumed cells write only the pending
// ones; a journaled chunk is one block, whole or absent; a failing
// chunk falls back to per-cell predict() with full error isolation; and
// chunk deadlines bound batched exact-MVA cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;
using runner::AnalyticBackend;
using runner::Backend;
using runner::BatchPointContext;
using runner::CellStatus;
using runner::FailurePolicy;
using runner::PointContext;
using runner::PointResult;
using runner::RunnerOptions;
using runner::SweepResult;
using runner::SweepSpec;

/// One cluster size, a rate axis from idle through deep saturation —
/// the grid where statuses actually vary (kOk and kDegraded cells).
SweepSpec rate_spec() {
  SweepSpec spec;
  spec.id = "batch";
  spec.axes.clusters = {16};
  spec.axes.lambda_per_us = {0.0,    1e-4,   2e-4,   4e-4,   6e-4,  8e-4,
                             1.2e-3, 1.6e-3, 2.4e-3, 3.2e-3, 4e-3,  5e-3};
  spec.base_seed = 7;
  return spec;
}

/// The axis shape of a cartesian solver grid: clusters x message size x
/// architecture x technology, which expands with architecture innermost
/// — so no two neighbouring points share a topology and every
/// same-topology run of a chunk is one cell long.
SweepSpec mixed_topology_spec() {
  SweepSpec spec;
  spec.id = "mixed";
  spec.axes.clusters = {1, 2, 4, 8, 16};
  spec.axes.message_bytes = {512.0, 1024.0, 4096.0};
  spec.axes.architectures = {analytic::NetworkArchitecture::kNonBlocking,
                             analytic::NetworkArchitecture::kBlocking};
  spec.axes.technologies = {
      runner::technology_case(analytic::HeterogeneityCase::kCase1),
      runner::technology_case(analytic::HeterogeneityCase::kCase2)};
  spec.axes.lambda_per_us = {1e-3};
  spec.base_seed = 7;
  return spec;
}

void expect_identical_cells(const SweepResult& a, const SweepResult& b,
                            const char* what) {
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const PointResult& x = a.cells[i];
    const PointResult& y = b.cells[i];
    EXPECT_EQ(x.mean_latency_us, y.mean_latency_us) << what << " cell " << i;
    EXPECT_EQ(x.ci_half_us, y.ci_half_us) << what << " cell " << i;
    EXPECT_EQ(x.lambda_offered, y.lambda_offered) << what << " cell " << i;
    EXPECT_EQ(x.lambda_effective, y.lambda_effective)
        << what << " cell " << i;
    EXPECT_EQ(x.converged, y.converged) << what << " cell " << i;
    EXPECT_EQ(x.max_center_utilization, y.max_center_utilization)
        << what << " cell " << i;
    EXPECT_EQ(x.status, y.status) << what << " cell " << i;
    EXPECT_EQ(x.attempts, y.attempts) << what << " cell " << i;
    EXPECT_EQ(x.error, y.error) << what << " cell " << i;
  }
}

// ---------------------------------------------------------------------
// Bit-identity: batching is an execution detail, not a model change.
// The default AnalyticBackend runs the batch path with warm starts off,
// so every chunk size reproduces the per-cell sweep exactly — including
// the kDegraded statuses of the non-converged saturated cells — both on
// a rate axis (one long same-topology run) and on a mixed-topology grid
// (runs of one cell; exact MVA solves its whole chunk together).

TEST(BatchBackend, BatchedSweepIsBitIdenticalToScalarForEveryMethod) {
  const analytic::SourceThrottling methods[] = {
      analytic::SourceThrottling::kNone, analytic::SourceThrottling::kPicard,
      analytic::SourceThrottling::kBisection,
      analytic::SourceThrottling::kExactMva};
  for (const SweepSpec& spec : {rate_spec(), mixed_topology_spec()}) {
    for (const analytic::SourceThrottling method : methods) {
      analytic::ModelOptions model;
      model.fixed_point.method = method;
      const auto backend = std::make_shared<AnalyticBackend>(model);

      RunnerOptions scalar;
      scalar.threads = 2;
      scalar.on_error = FailurePolicy::kCollectAll;
      const SweepResult reference = run_sweep(spec, {backend}, scalar);

      // Chunk sizes that divide the 12 rate points, leave a ragged
      // tail, and exceed the 12- and 60-point grids.
      for (const std::uint32_t chunk : {2u, 5u, 8u, 64u}) {
        RunnerOptions batched = scalar;
        batched.batch_cells = chunk;
        const SweepResult result = run_sweep(spec, {backend}, batched);
        expect_identical_cells(reference, result, spec.id.c_str());
      }
    }
  }
}

TEST(BatchBackend, BatchedSweepIsThreadCountInvariant) {
  // Picard leaves the saturated tail non-converged, so the grid carries
  // both kOk and kDegraded cells through the comparison.
  analytic::ModelOptions model;
  model.fixed_point.method = analytic::SourceThrottling::kPicard;
  const auto backend = std::make_shared<AnalyticBackend>(model);
  SweepResult reference;
  for (const std::uint32_t threads : {1u, 4u}) {
    RunnerOptions options;
    options.threads = threads;
    options.batch_cells = 4;
    options.on_error = FailurePolicy::kCollectAll;
    const SweepResult result = run_sweep(rate_spec(), {backend}, options);
    if (threads == 1u) {
      reference = result;
      // The saturated tail must actually exercise the degraded path.
      EXPECT_GT(result.count_status(CellStatus::kDegraded), 0u);
    } else {
      expect_identical_cells(reference, result, "threads");
    }
  }
}

// ---------------------------------------------------------------------
// Resume: chunk boundaries live in point-index space, so a chunk that
// contains journaled cells re-evaluates but writes only the pending
// ones — the merged result stays bit-identical to the uninterrupted run.

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

TEST(BatchBackend, ResumedBatchedSweepMergesBitIdentically) {
  const SweepSpec spec = rate_spec();
  const auto backend = std::make_shared<AnalyticBackend>();

  RunnerOptions scalar;
  scalar.threads = 1;
  scalar.on_error = FailurePolicy::kCollectAll;
  const SweepResult reference = run_sweep(spec, {backend}, scalar);

  // Journal only the even cells, as an interrupted run would have.
  const std::string path = temp_path("hmcs_batch_resume.jsonl");
  runner::JournalWriter::Shape shape;
  shape.id = spec.id;
  shape.points = reference.points.size();
  shape.backend_names = reference.backend_names;
  {
    runner::JournalWriter writer(path, shape, /*append=*/false);
    for (std::size_t p = 0; p < reference.points.size(); p += 2) {
      writer.record(p, reference.points[p].seed, reference.cells[p]);
    }
  }
  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  ASSERT_EQ(journal.completed(), (reference.points.size() + 1) / 2);

  RunnerOptions resumed = scalar;
  resumed.batch_cells = 8;
  resumed.resume = &journal;
  const SweepResult merged = run_sweep(spec, {backend}, resumed);
  expect_identical_cells(reference, merged, "resume");
}

// ---------------------------------------------------------------------
// Journal blocks: every cell of a chunk finishes when its evaluate_batch
// returns, so the runner journals the chunk as one block — whole, or
// absent when the sweep stopped first.

/// The cell index of every record line of a journal, in file order.
std::vector<std::size_t> journaled_cells(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::size_t> cells;
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue doc = parse_json(line);
    if (doc.find("cell") == nullptr) continue;  // a header
    cells.push_back(json_uint<std::size_t>(doc.at("cell"), "test", "cell"));
  }
  return cells;
}

runner::JournalWriter::Shape journal_shape(const SweepSpec& spec,
                                           const Backend& backend) {
  return {spec.id, runner::expand_sweep(spec).size(), {backend.name()}};
}

TEST(BatchedJournal, ReloadsToTheInMemoryGridWithEveryCellOnce) {
  const SweepSpec spec = mixed_topology_spec();
  const auto backend = std::make_shared<AnalyticBackend>();
  const std::string path = temp_path("hmcs_batched_journal.jsonl");
  SweepResult result;
  {
    runner::JournalWriter writer(path, journal_shape(spec, *backend),
                                 /*append=*/false);
    RunnerOptions options;
    options.threads = 3;
    options.batch_cells = 8;
    options.on_error = FailurePolicy::kCollectAll;
    options.journal = &writer;
    result = run_sweep(spec, {backend}, options);
  }

  std::vector<std::size_t> cells = journaled_cells(path);
  std::sort(cells.begin(), cells.end());
  std::vector<std::size_t> every(result.cells.size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  EXPECT_EQ(cells, every);

  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  ASSERT_EQ(journal.cells.size(), result.cells.size());
  SweepResult reloaded = result;
  for (std::size_t i = 0; i < journal.cells.size(); ++i) {
    ASSERT_TRUE(journal.cells[i].has_value()) << i;
    EXPECT_EQ(journal.seeds[i], result.points[i].seed) << i;
    reloaded.cells[i] = *journal.cells[i];
  }
  expect_identical_cells(result, reloaded, "reloaded");
}

/// The default analytic backend, cancelling the sweep once `after` of
/// its evaluate_batch calls have returned.
class CancelAfterChunks : public Backend {
 public:
  CancelAfterChunks(util::CancelToken& sweep, std::size_t after)
      : sweep_(sweep), after_(after) {}

  const std::string& name() const override { return inner_.name(); }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override {
    return inner_.predict(config, ctx);
  }
  std::size_t batch_capacity() const override {
    return inner_.batch_capacity();
  }
  void evaluate_batch(const analytic::SystemConfig* const* configs,
                      std::size_t count, const BatchPointContext& ctx,
                      PointResult* results) const override {
    inner_.evaluate_batch(configs, count, ctx, results);
    if (calls_.fetch_add(1) + 1 == after_) sweep_.cancel();
  }

 private:
  AnalyticBackend inner_;
  util::CancelToken& sweep_;
  std::size_t after_;
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(BatchedJournal, CancelledSweepJournalsWholeChunksAndResumesIdentically) {
  const SweepSpec spec = mixed_topology_spec();
  constexpr std::size_t kChunk = 8;
  RunnerOptions options;
  options.threads = 3;
  options.batch_cells = kChunk;
  options.on_error = FailurePolicy::kCollectAll;
  const SweepResult uninterrupted =
      run_sweep(spec, {std::make_shared<AnalyticBackend>()}, options);
  const std::size_t n_points = uninterrupted.points.size();

  const std::string path = temp_path("hmcs_batched_cancel.jsonl");
  util::CancelToken interrupt;
  const auto cancelling = std::make_shared<CancelAfterChunks>(interrupt, 2);
  {
    runner::JournalWriter writer(path, journal_shape(spec, *cancelling),
                                 /*append=*/false);
    RunnerOptions cancelled = options;
    cancelled.journal = &writer;
    cancelled.cancel = &interrupt;
    const SweepResult partial = run_sweep(spec, {cancelling}, cancelled);
    EXPECT_GT(partial.count_status(CellStatus::kSkipped), 0u);
  }

  // Every chunk [8k, 8k + 8) is all there or not there at all, and at
  // least the two chunks that finished before the cancel are there.
  std::vector<std::size_t> per_chunk((n_points + kChunk - 1) / kChunk, 0);
  for (const std::size_t cell : journaled_cells(path)) {
    ++per_chunk[cell / kChunk];
  }
  std::size_t whole = 0;
  for (std::size_t k = 0; k < per_chunk.size(); ++k) {
    const std::size_t size = std::min(kChunk, n_points - k * kChunk);
    EXPECT_TRUE(per_chunk[k] == 0 || per_chunk[k] == size)
        << "chunk " << k << " has " << per_chunk[k] << " of " << size;
    if (per_chunk[k] == size) ++whole;
  }
  EXPECT_GE(whole, 2u);
  EXPECT_LT(whole, per_chunk.size());

  const runner::SweepJournal journal = runner::load_sweep_journal(path);
  RunnerOptions resumed = options;
  resumed.resume = &journal;
  const SweepResult merged =
      run_sweep(spec, {std::make_shared<AnalyticBackend>()}, resumed);
  expect_identical_cells(uninterrupted, merged, "resume");
  EXPECT_EQ(runner::sweep_csv(merged).to_string(),
            runner::sweep_csv(uninterrupted).to_string());
  EXPECT_EQ(runner::sweep_json(merged), runner::sweep_json(uninterrupted));
}

// ---------------------------------------------------------------------
// Fallback: a throwing evaluate_batch fails the whole chunk, and the
// runner re-runs its pending cells through the per-cell machinery —
// with per-cell error isolation intact.

class FallbackProbeBackend : public Backend {
 public:
  explicit FallbackProbeBackend(int poison_index = -1)
      : poison_(poison_index) {}

  const std::string& name() const override { return name_; }
  std::size_t batch_capacity() const override { return 64; }

  PointResult predict(const analytic::SystemConfig&,
                      const PointContext& ctx) const override {
    if (static_cast<int>(ctx.index) == poison_) {
      throw hmcs::ConfigError("poisoned point");
    }
    PointResult result;
    result.mean_latency_us = 100.0 + static_cast<double>(ctx.index);
    return result;
  }

  void evaluate_batch(const analytic::SystemConfig* const*, std::size_t,
                      const BatchPointContext&, PointResult*) const override {
    throw hmcs::LogicError("batch path rejected");
  }

 private:
  int poison_;
  std::string name_ = "probe";
};

SweepSpec probe_spec() {
  SweepSpec spec;
  spec.id = "probe";
  spec.axes.clusters = {1, 2, 4, 8};
  spec.axes.message_bytes = {1024.0, 512.0};
  spec.base_seed = 11;
  return spec;
}

TEST(BatchBackend, FailingChunkFallsBackToPerCellEvaluation) {
  RunnerOptions options;
  options.threads = 2;
  options.batch_cells = 4;
  const SweepResult result =
      run_sweep(probe_spec(), {std::make_shared<FallbackProbeBackend>()},
                options);
  ASSERT_EQ(result.cells.size(), 8u);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(result.at(p, 0).status, CellStatus::kOk) << p;
    EXPECT_EQ(result.at(p, 0).mean_latency_us,
              100.0 + static_cast<double>(p));
    EXPECT_EQ(result.at(p, 0).attempts, 1u);
  }
}

TEST(BatchBackend, FallbackPreservesPerCellErrorIsolation) {
  RunnerOptions options;
  options.threads = 1;
  options.batch_cells = 8;  // one chunk holding the poisoned cell
  options.on_error = FailurePolicy::kCollectAll;
  const SweepResult result = run_sweep(
      probe_spec(), {std::make_shared<FallbackProbeBackend>(3)}, options);
  EXPECT_EQ(result.at(3, 0).status, CellStatus::kFailed);
  EXPECT_NE(result.at(3, 0).error.find("poisoned point"), std::string::npos);
  for (const std::size_t p : {0u, 1u, 2u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(result.at(p, 0).status, CellStatus::kOk) << p;
  }
}

TEST(BatchBackend, DefaultEvaluateBatchIsALogicError) {
  // Backends that never advertise batch_capacity() > 1 keep the base
  // implementation, which refuses to run.
  class PredictOnlyBackend : public Backend {
   public:
    const std::string& name() const override { return name_; }
    PointResult predict(const analytic::SystemConfig&,
                        const PointContext&) const override {
      return {};
    }

   private:
    std::string name_ = "predict-only";
  };
  PredictOnlyBackend backend;
  EXPECT_EQ(backend.batch_capacity(), 1u);
  EXPECT_THROW(backend.evaluate_batch(nullptr, 0, {}, nullptr),
               hmcs::LogicError);
}

// ---------------------------------------------------------------------
// Deadlines: the chunk token (cell budget × chunk size) is threaded
// into the solver, so even population-2^20 exact-MVA cells unwind as
// kTimedOut — on the batched path and the per-cell path alike.

TEST(BatchBackend, DeadlineBoundsExactMvaCellsOnBothPaths) {
  SweepSpec spec;
  spec.id = "mva-deadline";
  spec.total_nodes = 1u << 20;
  spec.axes.clusters = {1024};
  spec.axes.lambda_per_us = {1e-4, 2e-4, 3e-4, 4e-4};
  analytic::ModelOptions model;
  model.fixed_point.method = analytic::SourceThrottling::kExactMva;
  const auto backend = std::make_shared<AnalyticBackend>(model);

  for (const std::uint32_t chunk : {0u, 3u}) {
    RunnerOptions options;
    options.threads = 1;
    options.batch_cells = chunk;
    options.cell_deadline_ms = 1e-3;
    options.on_error = FailurePolicy::kCollectAll;
    const SweepResult result = run_sweep(spec, {backend}, options);
    EXPECT_EQ(result.count_status(CellStatus::kTimedOut), 4u)
        << "batch_cells=" << chunk;
  }
}

}  // namespace
