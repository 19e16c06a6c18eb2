#include "hmcs/runner/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs::runner {

const PointResult& SweepResult::at(std::size_t point,
                                   std::size_t backend) const {
  require(point < points.size(), "SweepResult::at: point out of range");
  require(backend < backend_names.size(),
          "SweepResult::at: backend out of range");
  return cells[point * backend_names.size() + backend];
}

std::size_t SweepResult::backend_index(const std::string& name) const {
  for (std::size_t i = 0; i < backend_names.size(); ++i) {
    if (backend_names[i] == name) return i;
  }
  detail::throw_config_error("SweepResult: no backend named '" + name + "'",
                             std::source_location::current());
}

std::size_t SweepResult::count_status(CellStatus status) const {
  std::size_t count = 0;
  for (const PointResult& cell : cells) {
    if (cell.status == status) ++count;
  }
  return count;
}

bool SweepResult::all_evaluated() const {
  for (const PointResult& cell : cells) {
    if (cell.status != CellStatus::kOk &&
        cell.status != CellStatus::kDegraded) {
      return false;
    }
  }
  return true;
}

namespace {

/// One schedulable unit: a contiguous run of points through one
/// backend. count == 1 is the per-cell path (the historical execution);
/// count > 1 is a batch chunk for a capacity-advertising backend.
struct Task {
  std::size_t first_point = 0;
  std::size_t count = 1;
  std::size_t backend = 0;
};

/// Validity guardrails, applied to a cell that evaluated without
/// throwing: demote results that would silently poison a figure.
void apply_guardrails(PointResult& cell, const RunnerOptions& options) {
  if (!std::isfinite(cell.mean_latency_us)) {
    cell.status = CellStatus::kDegraded;
    cell.error = "non-finite mean latency";
    return;
  }
  if (!cell.converged) {
    cell.status = CellStatus::kDegraded;
    cell.error = "fixed point did not converge";
    return;
  }
  if (cell.max_center_utilization >= options.degraded_utilization) {
    cell.status = CellStatus::kDegraded;
    cell.error = "saturated: max centre utilization " +
                 format_fixed(cell.max_center_utilization, 3) + " >= " +
                 format_fixed(options.degraded_utilization, 3);
  }
}

void count_terminal_status(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      HMCS_OBS_COUNTER_INC("runner.cells.completed");
      break;
    case CellStatus::kFailed:
      HMCS_OBS_COUNTER_INC("runner.cells.failed");
      break;
    case CellStatus::kTimedOut:
      HMCS_OBS_COUNTER_INC("runner.cells.timed_out");
      break;
    case CellStatus::kDegraded:
      HMCS_OBS_COUNTER_INC("runner.cells.degraded");
      break;
    case CellStatus::kSkipped:
      break;  // counted in bulk after the pool drains
  }
}

void merge_resumed_cells(const SweepJournal& journal, SweepResult& result,
                         std::vector<char>& done) {
  require(journal.id == result.id,
          "run_sweep: resume journal is for sweep '" + journal.id +
              "', not '" + result.id + "'");
  require(journal.points == result.points.size(),
          "run_sweep: resume journal has a different point count");
  require(journal.backend_names == result.backend_names,
          "run_sweep: resume journal has a different backend set");
  const std::size_t n_backends = result.backend_names.size();
  std::uint64_t resumed = 0;
  for (std::size_t cell = 0; cell < journal.cells.size(); ++cell) {
    if (!journal.cells[cell].has_value()) continue;
    // The journaled first-attempt seed must equal this expansion's —
    // anything else means the journal belongs to a different spec and
    // merging would mix incompatible runs.
    require(journal.seeds[cell] == result.points[cell / n_backends].seed,
            [&] {
              return "run_sweep: resume journal seed mismatch at cell " +
                     std::to_string(cell) +
                     " (journal from a different spec?)";
            });
    result.cells[cell] = *journal.cells[cell];
    done[cell] = 1;
    ++resumed;
  }
  HMCS_OBS_COUNTER_ADD("runner.cells.resumed", resumed);
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec,
                      const std::vector<std::shared_ptr<Backend>>& backends,
                      const RunnerOptions& options) {
  require(!backends.empty(), "run_sweep: needs at least one backend");
  require(options.max_attempts >= 1, "run_sweep: max_attempts must be >= 1");

  SweepResult result;
  result.id = spec.id;
  result.title = spec.title;
  result.points = expand_sweep(spec);
  require(!result.points.empty(), "run_sweep: the sweep expands to no points");
  result.backend_names.reserve(backends.size());
  for (const auto& backend : backends) {
    require(backend != nullptr, "run_sweep: null backend");
    for (const std::string& existing : result.backend_names) {
      require(existing != backend->name(),
              "run_sweep: duplicate backend name '" + backend->name() + "'");
    }
    result.backend_names.push_back(backend->name());
  }

  obs::WallClockSpan sweep_span(options.trace.get(), spec.id, "runner.sweep",
                                1, 0);
  HMCS_OBS_TIMER_SCOPE("runner.sweep.wall_time");
  if (options.trace) {
    options.trace->set_process_name(1, spec.id + " sweep (wall-clock us)");
  }

  const std::size_t n_backends = backends.size();
  const std::size_t n_cells = result.points.size() * n_backends;
  result.cells.resize(n_cells);

  // done[cell] is written only by the single worker that claimed the
  // cell (or here, before the pool starts) and read after join, so a
  // plain byte array is race-free.
  std::vector<char> done(n_cells, 0);
  if (options.resume != nullptr) {
    merge_resumed_cells(*options.resume, result, done);
  }

  const auto sweep_cancelled = [&] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };

  /// One cell to its terminal status. Returns false when the sweep was
  /// cancelled mid-attempt (the cell stays not-done and is marked
  /// kSkipped after the drain); fills `fail_fast_error` when a terminal
  /// failure must abort the sweep under kFailFast.
  auto run_cell = [&](std::size_t cell, std::uint32_t worker,
                      std::exception_ptr& fail_fast_error) -> bool {
    const SweepPoint& point = result.points[cell / n_backends];
    const std::size_t backend = cell % n_backends;
    PointResult& out = result.cells[cell];
    std::exception_ptr last_error;
    for (std::uint32_t attempt = 1;; ++attempt) {
      util::CancelToken cell_token(options.cancel);
      cell_token.set_deadline_after_ms(options.cell_deadline_ms);
      PointContext ctx;
      ctx.index = point.index;
      ctx.worker = worker;
      ctx.seed = retry_point_seed(point.seed, attempt);
      ctx.attempt = attempt;
      ctx.trace = options.trace;
      ctx.cancel = &cell_token;
      // Labels only name trace tracks: without a session none is built.
      if (options.trace) ctx.label = point.label;
      // Wall-clock span per cell: pid 1 is the sweep's wall-clock
      // domain, tid separates concurrent workers.
      obs::WallClockSpan cell_span(
          options.trace.get(),
          options.trace
              ? point.label + " [" + result.backend_names[backend] + "]"
              : std::string(),
          "runner.point", 1, worker + 1);
      try {
        out = point.tree != nullptr
                  ? backends[backend]->predict_tree(*point.tree, ctx)
                  : backends[backend]->predict(point.config, ctx);
        out.status = CellStatus::kOk;
        out.attempts = attempt;
        out.error.clear();
        apply_guardrails(out, options);
        break;
      } catch (const hmcs::Cancelled&) {
        out = PointResult{};
        out.status = CellStatus::kSkipped;
        out.attempts = attempt;
        return false;
      } catch (const hmcs::DeadlineExceeded& error) {
        out = PointResult{};
        out.status = CellStatus::kTimedOut;
        out.attempts = attempt;
        out.error = error.what();
        last_error = std::current_exception();
      } catch (const std::exception& error) {
        out = PointResult{};
        out.status = CellStatus::kFailed;
        out.attempts = attempt;
        out.error = error.what();
        last_error = std::current_exception();
      } catch (...) {
        out = PointResult{};
        out.status = CellStatus::kFailed;
        out.attempts = attempt;
        out.error = "unknown exception";
        last_error = std::current_exception();
      }
      if (attempt >= options.max_attempts) break;
      HMCS_OBS_COUNTER_INC("runner.cells.retried");
    }

    done[cell] = 1;
    count_terminal_status(out.status);
    if (options.journal != nullptr) {
      options.journal->record(cell, point.seed, out);
    }
    if (options.on_error == FailurePolicy::kFailFast &&
        (out.status == CellStatus::kFailed ||
         out.status == CellStatus::kTimedOut)) {
      fail_fast_error = last_error;
    }
    return true;
  };

  /// One contiguous point-chunk through a backend's batch path. A chunk
  /// whose cells are all done (resumed) is skipped outright; a chunk
  /// with any pending cell re-evaluates *every* cell — the same call an
  /// uninterrupted run makes — but writes only the pending ones, so
  /// merged resume output stays byte-identical to an uninterrupted run.
  /// Returns false when the sweep was cancelled mid-chunk.
  auto run_batch_task = [&](const Task& task, std::uint32_t worker,
                            std::exception_ptr& fail_fast_error) -> bool {
    bool any_pending = false;
    for (std::size_t k = 0; k < task.count && !any_pending; ++k) {
      any_pending = !done[(task.first_point + k) * n_backends + task.backend];
    }
    if (!any_pending) return true;

    util::CancelToken chunk_token(options.cancel);
    chunk_token.set_deadline_after_ms(options.cell_deadline_ms *
                                      static_cast<double>(task.count));
    BatchPointContext ctx;
    ctx.first_index = result.points[task.first_point].index;
    ctx.worker = worker;
    ctx.cancel = &chunk_token;

    std::vector<const analytic::SystemConfig*> configs(task.count);
    for (std::size_t k = 0; k < task.count; ++k) {
      configs[k] = &result.points[task.first_point + k].config;
    }
    std::vector<PointResult> chunk(task.count);

    obs::WallClockSpan chunk_span(
        options.trace.get(),
        options.trace ? result.points[task.first_point].label + " +" +
                            std::to_string(task.count - 1) + " [" +
                            result.backend_names[task.backend] + "]"
                      : std::string(),
        "runner.batch", 1, worker + 1);
    bool evaluated = false;
    try {
      backends[task.backend]->evaluate_batch(configs.data(), task.count, ctx,
                                             chunk.data());
      evaluated = true;
    } catch (const hmcs::Cancelled&) {
      return false;  // sweep cancelled; the cells drain as kSkipped
    } catch (...) {
      // Chunk deadline, one bad cell, or a backend bug: isolate it by
      // degrading to the per-cell path below, which re-applies the full
      // retry/deadline machinery to each pending cell individually.
      HMCS_OBS_COUNTER_INC("runner.batch.fallbacks");
    }

    if (evaluated) {
      HMCS_OBS_COUNTER_INC("runner.batch.calls");
      HMCS_OBS_COUNTER_ADD("runner.batch.cells", task.count);
      // Every cell of the chunk finished together, so the chunk's
      // pending cells go to the journal as one block.
      std::vector<JournalWriter::Record> records;
      if (options.journal != nullptr) records.reserve(task.count);
      for (std::size_t k = 0; k < task.count; ++k) {
        const std::size_t cell =
            (task.first_point + k) * n_backends + task.backend;
        if (done[cell]) continue;
        PointResult& out = result.cells[cell];
        out = chunk[k];
        out.status = CellStatus::kOk;
        out.attempts = 1;
        out.error.clear();
        apply_guardrails(out, options);
        done[cell] = 1;
        count_terminal_status(out.status);
        if (options.journal != nullptr) {
          records.push_back(JournalWriter::Record{
              cell, result.points[task.first_point + k].seed, &out});
        }
      }
      if (options.journal != nullptr) options.journal->record(records);
      return true;
    }
    for (std::size_t k = 0; k < task.count; ++k) {
      const std::size_t cell =
          (task.first_point + k) * n_backends + task.backend;
      if (done[cell]) continue;
      if (!run_cell(cell, worker, fail_fast_error)) return false;
      if (fail_fast_error) return true;
    }
    return true;
  };

  // The schedulable task list. With batching off (or for backends with
  // no batch path) every task is one cell in point-major order, so the
  // task indices and claim order reproduce the historical per-cell
  // execution exactly. With batching on, a capacity-advertising
  // backend's points are chunked on fixed point-aligned boundaries —
  // independent of thread count and resume state, which keeps results
  // deterministic.
  const std::size_t n_points = result.points.size();
  // Nested tree points cannot ride the batched path: evaluate_batch
  // takes SystemConfig pointers, and a nested point's config is a
  // placeholder. Force per-cell tasks for such sweeps. Flat-shaped
  // trees were lowered to configs at expansion, so their sweeps batch
  // like flat ones.
  bool any_tree_point = false;
  for (const SweepPoint& point : result.points) {
    if (point.tree != nullptr) {
      any_tree_point = true;
      break;
    }
  }
  std::vector<std::size_t> chunk_of(n_backends, 1);
  if (options.batch_cells > 1 && !any_tree_point) {
    for (std::size_t b = 0; b < n_backends; ++b) {
      const std::size_t capacity = backends[b]->batch_capacity();
      if (capacity > 1) {
        chunk_of[b] = std::min<std::size_t>(options.batch_cells, capacity);
      }
    }
  }
  std::vector<Task> tasks;
  tasks.reserve(n_cells);
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t b = 0; b < n_backends; ++b) {
      if (p % chunk_of[b] != 0) continue;
      tasks.push_back(Task{p, std::min(chunk_of[b], n_points - p), b});
    }
  }

  auto run_task = [&](const Task& task, std::uint32_t worker,
                      std::exception_ptr& fail_fast_error) -> bool {
    if (task.count == 1) {
      const std::size_t cell = task.first_point * n_backends + task.backend;
      if (done[cell]) return true;  // completed in the resumed journal
      return run_cell(cell, worker, fail_fast_error);
    }
    return run_batch_task(task, worker, fail_fast_error);
  };

  std::uint32_t threads =
      options.threads != 0
          ? options.threads
          : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, tasks.size()));

  // Workers claim tasks in index order from one shared counter. A
  // claim past the end is discarded, and every task writes only its own
  // result slots, so which worker runs a task never affects the output.
  std::atomic<std::size_t> next_task{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker_body = [&](std::uint32_t w) {
    std::exception_ptr fail_fast_error;
    while (!failed.load(std::memory_order_relaxed) && !sweep_cancelled()) {
      const std::size_t task =
          next_task.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks.size()) return;
      if (!run_task(tasks[task], w, fail_fast_error)) return;  // cancelled
      if (fail_fast_error) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = fail_fast_error;
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (threads <= 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t w = 0; w < threads; ++w) {
      pool.emplace_back(worker_body, w);
    }
    for (std::thread& thread : pool) thread.join();
  }

  // A SIGINT-style cancel outranks fail-fast: the caller asked for the
  // partial grid (to flush/report it), not for the abandoned cells'
  // exception.
  if (first_error && !sweep_cancelled()) std::rethrow_exception(first_error);

  std::uint64_t skipped = 0;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    if (done[cell]) continue;
    result.cells[cell] = PointResult{};
    result.cells[cell].status = CellStatus::kSkipped;
    ++skipped;
  }
  if (skipped != 0) HMCS_OBS_COUNTER_ADD("runner.cells.skipped", skipped);
  return result;
}

}  // namespace hmcs::runner
