// hmcs_run — the config-driven sweep front-end: load a JSON sweep
// config (runner/sweep_config.hpp), execute it on the multi-threaded
// runner, and emit the standard artifact set. Any study expressible as
// axes × backends runs from here without writing a new binary, the
// paper's Figures 4-7 included (configs/sweeps/fig{4,5,6,7}.json); the
// bespoke harnesses in bench/ remain for the layouts that need custom
// rendering.
//
//   $ ./hmcs_run --config configs/sweeps/fig4.json --csv-dir results
//       --json-dir results
//   $ ./hmcs_run --config configs/sweeps/smoke_analytic.json
//   $ ./hmcs_run --config sweep.json --threads 8 --csv-dir out/
//   $ ./hmcs_run --config sweep.json --journal run.jsonl
//       --on-error collect-all --retries 2 --deadline-ms 60000
//   $ ./hmcs_run --config sweep.json --resume run.jsonl   # after ^C
//
// Results are bit-identical for any --threads value: per-point seeds
// are fixed at expansion time and each grid cell writes its own slot.
// With --journal, completed cells are checkpointed as they finish and
// SIGINT exits cleanly (exit 130) after flushing; --resume skips the
// journaled cells and the merged report is byte-identical to an
// uninterrupted run (docs/ROBUSTNESS.md).
//
// Exit codes: 0 success (degraded cells are still success — they carry
// flagged numbers), 1 configuration/usage errors, 2 completed with
// failed or timed-out cells, 130 interrupted by SIGINT.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/obs/export.hpp"
#include "hmcs/obs/metrics.hpp"
#include "hmcs/obs/trace.hpp"
#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/cli.hpp"

namespace {

// SIGINT → one relaxed atomic store (async-signal-safe); the runner's
// workers observe it within one cell claim and the sims within a few
// thousand events.
hmcs::util::CancelToken g_interrupt;

extern "C" void handle_sigint(int) { g_interrupt.cancel(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hmcs;

  CliParser cli("hmcs_run", "run a declarative sweep from a config file");
  cli.add_option("config", "sweep config path (JSON)", "");
  cli.add_option("threads", "worker threads (0 = hardware concurrency; "
                            "overrides the config when given)", "");
  cli.add_option("csv-dir", "directory for the CSV series", "");
  cli.add_option("json-dir", "directory for the JSON record", "");
  cli.add_option("journal", "JSON-lines checkpoint journal to write "
                            "(enables clean ^C + --resume)", "");
  cli.add_option("resume", "journal from an interrupted run: skip its "
                           "completed cells and append to it", "");
  cli.add_option("on-error", "fail-fast | collect-all (overrides the "
                             "config when given)", "");
  cli.add_option("retries", "max attempts per cell, >= 1 (overrides the "
                            "config when given)", "");
  cli.add_option("deadline-ms", "per-cell wall-clock budget in ms, 0 = "
                                "none (overrides the config when given)", "");
  cli.add_option("batch", "cells per batched backend call, 0 = per-cell; "
                          "exact-MVA calls are capped at the CPU's MVA lane "
                          "width (overrides the config when given)", "");
  cli.add_option("obs-out", "directory for observability artifacts "
                            "(metrics.json, metrics.csv, trace.json)", "");
  cli.add_option("obs-sample-us",
                 "sim-time sampling period for counter tracks (us)", "200");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::string config_path = cli.get_string("config");
    if (config_path.empty()) {
      std::cerr << "error: --config is required\n\n" << cli.help_text();
      return 1;
    }

    const std::string obs_dir = cli.get_string("obs-out");
    runner::SweepLoadOptions load_options;
    if (!obs_dir.empty()) {
      load_options.obs_sample_interval_us = cli.get_double("obs-sample-us");
    }
    runner::SweepRunConfig run = runner::load_sweep_config(config_path,
                                                           load_options);

    runner::RunnerOptions options;
    options.threads = run.threads;
    options.on_error = run.on_error;
    options.max_attempts = run.max_attempts;
    options.cell_deadline_ms = run.cell_deadline_ms;
    options.degraded_utilization = run.degraded_utilization;
    options.batch_cells = run.batch_cells;
    if (!cli.get_string("threads").empty()) {
      options.threads = static_cast<std::uint32_t>(cli.get_uint("threads"));
    }
    if (!cli.get_string("on-error").empty()) {
      options.on_error =
          runner::parse_failure_policy(cli.get_string("on-error"));
    }
    if (!cli.get_string("retries").empty()) {
      options.max_attempts =
          static_cast<std::uint32_t>(cli.get_uint("retries"));
      require(options.max_attempts >= 1, "hmcs_run: --retries must be >= 1");
    }
    if (!cli.get_string("deadline-ms").empty()) {
      options.cell_deadline_ms = cli.get_double("deadline-ms");
      require(options.cell_deadline_ms >= 0.0,
              "hmcs_run: --deadline-ms must be >= 0");
    }
    if (!cli.get_string("batch").empty()) {
      options.batch_cells = static_cast<std::uint32_t>(cli.get_uint("batch"));
    }
    std::shared_ptr<obs::TraceSession> trace;
    if (!obs_dir.empty()) {
      trace = std::make_shared<obs::TraceSession>();
      options.trace = trace;
    }

    // Checkpoint/resume wiring. --resume implies journaling to the same
    // file (append; later records win on load).
    std::string journal_path = cli.get_string("journal");
    const std::string resume_path = cli.get_string("resume");
    if (journal_path.empty()) journal_path = resume_path;
    runner::JournalWriter::Shape shape;
    if (!journal_path.empty()) {
      shape.id = run.spec.id;
      shape.points = expand_sweep(run.spec).size();
      for (const auto& backend : run.backends) {
        shape.backend_names.push_back(backend->name());
      }
    }
    runner::SweepJournal resumed;
    if (!resume_path.empty()) {
      // Checked against this sweep's shape before its cells are sized.
      resumed = runner::load_sweep_journal(resume_path, shape);
      options.resume = &resumed;
      std::cerr << "resuming: " << resumed.completed() << " of "
                << resumed.cells.size() << " cells already journaled\n";
    }
    std::unique_ptr<runner::JournalWriter> journal;
    if (!journal_path.empty()) {
      journal = std::make_unique<runner::JournalWriter>(
          journal_path, shape, /*append=*/journal_path == resume_path);
      options.journal = journal.get();
    }

    options.cancel = &g_interrupt;
    std::signal(SIGINT, handle_sigint);

    const runner::SweepResult result =
        runner::run_sweep(run.spec, run.backends, options);
    runner::print_sweep_report(std::cout, result, cli.get_string("csv-dir"),
                               cli.get_string("json-dir"));

    if (!obs_dir.empty()) {
      HMCS_OBS_GAUGE_SET("obs.trace.dropped_events",
                         static_cast<double>(trace->dropped_count()));
      obs::write_run_artifacts(obs_dir, obs::Registry::global().snapshot(),
                               trace.get());
      std::cout << "observability artifacts written to " << obs_dir
                << " (open trace.json at https://ui.perfetto.dev)\n";
    }

    if (g_interrupt.cancelled()) {
      const std::size_t remaining =
          result.count_status(runner::CellStatus::kSkipped);
      std::cerr << "interrupted: " << remaining << " of "
                << result.cells.size() << " cells not run";
      if (journal != nullptr) {
        std::cerr << "; resume with --resume " << journal->path();
      }
      std::cerr << "\n";
      return 130;
    }
    if (result.count_status(runner::CellStatus::kFailed) +
            result.count_status(runner::CellStatus::kTimedOut) >
        0) {
      std::cerr << "completed with failures (see status columns)\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
