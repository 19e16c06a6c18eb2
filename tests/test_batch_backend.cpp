// The batched Backend path (Backend::evaluate_batch + RunnerOptions::
// batch_cells): a batched analytic sweep is bit-identical to the
// per-cell run — values, statuses, attempts, errors — at any chunk size
// and thread count, on fixed and seeded random sweeps; chunks
// containing resumed cells write only the pending ones; a journaled
// chunk is one block, whole or absent; a failing chunk falls back to
// per-cell predict() with full error isolation; chunk deadlines bound
// batched exact-MVA cells; and deadlines too long for the clock never
// expire.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
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

/// A seeded random flat sweep: 1-3 cluster counts dividing N = 256 or
/// 96, 1-2 message sizes, 1-4 rates (zero one time in five, otherwise
/// log-uniform from idle through deep saturation), one or both
/// architectures and technology cases, and on about half the specs a
/// service cv² and an arrival ca² axis. One spec in five carries an
/// MMPP workload and one in five failure/repair; exact MVA refuses
/// those and every non-unit cv² or ca² point (product form only).
SweepSpec random_spec(std::mt19937_64& rng, std::size_t index) {
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto coin = [&rng](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  static constexpr std::uint32_t kDivisors256[] = {1,  2,  4,   8,  16,
                                                   32, 64, 128, 256};
  static constexpr std::uint32_t kDivisors96[] = {1,  2,  3,  4,  6,  8,
                                                  12, 16, 24, 32, 48, 96};
  static constexpr double kVariability[] = {0.0, 0.5, 1.0, 4.0};

  SweepSpec spec;
  spec.id = "random" + std::to_string(index);
  spec.base_seed = rng();
  const bool large = coin(0.5);
  spec.total_nodes = large ? 256 : 96;
  for (std::size_t k = 1 + pick(3); k > 0; --k) {
    spec.axes.clusters.push_back(large ? kDivisors256[pick(9)]
                                       : kDivisors96[pick(12)]);
  }
  for (std::size_t k = 1 + pick(2); k > 0; --k) {
    spec.axes.message_bytes.push_back(
        std::uniform_real_distribution<double>(64.0, 8192.0)(rng));
  }
  for (std::size_t k = 1 + pick(4); k > 0; --k) {
    // Log-uniform in [1e-6, 5e-3] msg/us.
    spec.axes.lambda_per_us.push_back(
        coin(0.2) ? 0.0
                  : 1e-6 * std::pow(5e3, std::uniform_real_distribution<double>(
                                             0.0, 1.0)(rng)));
  }
  const analytic::NetworkArchitecture architectures[] = {
      analytic::NetworkArchitecture::kNonBlocking,
      analytic::NetworkArchitecture::kBlocking};
  if (coin(0.5)) {
    spec.axes.architectures.assign(std::begin(architectures),
                                   std::end(architectures));
  } else {
    spec.axes.architectures = {architectures[pick(2)]};
  }
  const analytic::HeterogeneityCase cases[] = {
      analytic::HeterogeneityCase::kCase1,
      analytic::HeterogeneityCase::kCase2};
  for (const analytic::HeterogeneityCase hetero : cases) {
    if (coin(0.6)) {
      spec.axes.technologies.push_back(runner::technology_case(hetero));
    }
  }
  const double workload = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  if (workload < 0.2) {
    spec.workload.mmpp = analytic::MmppArrivals{6.0, 0.15, 5e3};
  } else if (workload < 0.4) {
    spec.workload.failure = analytic::FailureRepair{5e5, 2e3};
  }
  if (coin(0.5)) {
    for (std::size_t k = 1 + pick(2); k > 0; --k) {
      spec.axes.service_cv2.push_back(kVariability[pick(4)]);
    }
  }
  // An MMPP fixes the arrival ca²; the axis would contradict it.
  if (!spec.workload.mmpp.has_value() && coin(0.5)) {
    for (std::size_t k = 1 + pick(2); k > 0; --k) {
      spec.axes.arrival_ca2.push_back(kVariability[pick(4)]);
    }
  }
  return spec;
}

/// Bitwise equality, so -0.0 vs 0.0 and NaN payloads count too.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical_cells(const SweepResult& a, const SweepResult& b,
                            const char* what) {
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const PointResult& x = a.cells[i];
    const PointResult& y = b.cells[i];
    EXPECT_TRUE(same_bits(x.mean_latency_us, y.mean_latency_us))
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.ci_half_us, y.ci_half_us))
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.lambda_offered, y.lambda_offered))
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.lambda_effective, y.lambda_effective))
        << what << " cell " << i;
    EXPECT_EQ(x.converged, y.converged) << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.effective_rate_per_us, y.effective_rate_per_us))
        << what << " cell " << i;
    EXPECT_EQ(x.messages_measured, y.messages_measured)
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.mean_switch_hops, y.mean_switch_hops))
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.max_switch_utilization, y.max_switch_utilization))
        << what << " cell " << i;
    EXPECT_TRUE(same_bits(x.max_center_utilization, y.max_center_utilization))
        << what << " cell " << i;
    EXPECT_EQ(x.status, y.status) << what << " cell " << i;
    EXPECT_EQ(x.attempts, y.attempts) << what << " cell " << i;
    EXPECT_EQ(x.error, y.error) << what << " cell " << i;
  }
}

// ---------------------------------------------------------------------
// Bit-identity: batching is an execution detail, not a model change.
// Every solve starts cold, so every chunk size and thread count
// reproduces the per-cell sweep exactly — including the kDegraded
// statuses of the non-converged saturated cells and the kFailed cells
// of exact MVA on non-product-form workloads — on a rate axis (one long
// same-topology run), on a mixed-topology grid (runs of one cell; exact
// MVA solves its whole chunk together), and on seeded random sweeps.

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

  std::mt19937_64 rng(20261017);
  const auto draw = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  std::size_t zero_rate_points = 0;
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (std::size_t index = 0; index < 16; ++index) {
    const SweepSpec spec = random_spec(rng, index);
    for (const analytic::SourceThrottling method : methods) {
      analytic::ModelOptions model;
      model.fixed_point.method = method;
      const auto backend = std::make_shared<AnalyticBackend>(model);

      RunnerOptions scalar;
      scalar.threads = draw(1, 4);
      scalar.on_error = FailurePolicy::kCollectAll;
      const SweepResult reference = run_sweep(spec, {backend}, scalar);

      RunnerOptions batched = scalar;
      batched.threads = draw(1, 4);
      batched.batch_cells = draw(2, 64);
      const SweepResult result = run_sweep(spec, {backend}, batched);
      const std::string what = spec.id + " method " +
                               std::to_string(static_cast<int>(method)) +
                               " batch " +
                               std::to_string(batched.batch_cells);
      expect_identical_cells(reference, result, what.c_str());
      ok += reference.count_status(CellStatus::kOk);
      degraded += reference.count_status(CellStatus::kDegraded);
      failed += reference.count_status(CellStatus::kFailed);
      if (method == analytic::SourceThrottling::kNone) {
        for (const runner::SweepPoint& point : reference.points) {
          zero_rate_points += point.lambda_per_us == 0.0 ? 1 : 0;
        }
      }
    }
  }
  // The random specs reach idle cells, saturation and MVA's refusals.
  EXPECT_GT(zero_rate_points, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(failed, 0u);
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

/// The default analytic backend, counting the calls the runner makes.
class CountingBackend : public Backend {
 public:
  const std::string& name() const override { return inner_.name(); }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override {
    predict_calls.fetch_add(1);
    return inner_.predict(config, ctx);
  }
  std::size_t batch_capacity() const override {
    return inner_.batch_capacity();
  }
  void evaluate_batch(const analytic::SystemConfig* const* configs,
                      std::size_t count, const BatchPointContext& ctx,
                      PointResult* results) const override {
    batch_calls.fetch_add(1);
    inner_.evaluate_batch(configs, count, ctx, results);
  }

  mutable std::atomic<std::size_t> predict_calls{0};
  mutable std::atomic<std::size_t> batch_calls{0};

 private:
  AnalyticBackend inner_;
};

TEST(BatchBackend, DeadlinesBeyondTheClockNeverExpire) {
  // A budget whose end the steady clock cannot represent (int64 ns,
  // ~9.2e12 ms) arms no deadline: per cell (1e13, 1e300) and per chunk
  // (5e11 ms x 8 cells) alike, so no cell times out and no chunk falls
  // back to per-cell evaluation.
  for (const double deadline_ms : {5e11, 1e13, 1e300}) {
    RunnerOptions per_cell;
    per_cell.threads = 1;
    per_cell.cell_deadline_ms = deadline_ms;
    per_cell.on_error = FailurePolicy::kCollectAll;
    const SweepResult cells =
        run_sweep(rate_spec(), {std::make_shared<AnalyticBackend>()}, per_cell);
    EXPECT_EQ(cells.count_status(CellStatus::kOk), cells.cells.size())
        << deadline_ms;

    RunnerOptions batched = per_cell;
    batched.batch_cells = 8;
    const auto counting = std::make_shared<CountingBackend>();
    const SweepResult chunks = run_sweep(rate_spec(), {counting}, batched);
    EXPECT_EQ(chunks.count_status(CellStatus::kOk), chunks.cells.size())
        << deadline_ms;
    EXPECT_EQ(counting->batch_calls.load(), 2u) << deadline_ms;
    EXPECT_EQ(counting->predict_calls.load(), 0u) << deadline_ms;
    expect_identical_cells(cells, chunks, "deadline");
  }
}

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
