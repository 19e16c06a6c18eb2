#pragma once

/// \file sweep_report.hpp
/// Generic artifact rendering for an executed sweep: a paper-style
/// table (one row per point, one latency column per backend, relative
/// error against the first backend), a flat CSV series, and a
/// machine-readable JSON record. Every sweep run through hmcs_run
/// renders with these, the paper's Figures 4-7 included
/// (configs/sweeps/fig{4,5,6,7}.json, outputs in results/fig*); bench
/// binaries with bespoke layouts read the SweepResult directly.

#include <iosfwd>
#include <string>

#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/csv.hpp"

namespace hmcs::runner {

/// Table columns: the coordinate axes that actually vary across the
/// sweep (clusters and message bytes always; lambda/technology/
/// architecture only when non-singleton), then "<backend> (ms)" per
/// backend (with ±CI when the backend reports one), then
/// "RelErr <backend>" against the first backend when there are >= 2.
/// Fault-tolerance columns appear only when informative: "Conv <b>"
/// per backend when any cell is non-converged, "Status <b>" when any
/// cell is non-ok (failed cells print FAILED/TIMEOUT/- in the latency
/// column, and RelErr falls back to "-" when either side has no
/// value). An all-ok converged sweep renders byte-identically to the
/// pre-robustness engine.
std::string render_sweep_table(const SweepResult& result);

/// One row per point: clusters, message_bytes, lambda_per_s,
/// architecture, technology, seed, then per backend mean_ms,
/// ci_half_ms, converged (0/1), status (ok|failed|timed_out|degraded|
/// skipped), and attempts.
CsvWriter sweep_csv(const SweepResult& result);

/// Spec echo + backends + every cell with its diagnostics.
std::string sweep_json(const SweepResult& result);

/// Renders the table plus, when the directories are non-empty,
/// `<csv_dir>/<id>.csv` and `<json_dir>/<id>.json`, byte-identical to
/// sweep_csv and sweep_json + "\n". The two files are written on
/// threads of their own through bounded buffers while the table
/// renders; after both finish, a failed write throws (the CSV's error
/// first) and otherwise the "written to" lines follow the table.
void print_sweep_report(std::ostream& os, const SweepResult& result,
                        const std::string& csv_dir = "",
                        const std::string& json_dir = "");

}  // namespace hmcs::runner
