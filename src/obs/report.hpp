#pragma once
//
// Run-report writer: serializes the metric registry plus build/config
// provenance to a stable JSON schema ("cmesolve.run_report/2"):
//
//   {
//     "schema": "cmesolve.run_report/2",
//     "provenance": { "version", "git", "threads", "openmp",
//                     "threads_enabled", "perf_available",
//                     ...free-form context kv... },
//     "metrics":  { "counters": {..}, "gauges": {..},
//                   "histograms": { name: {count,min,max,mean,stddev} } },
//     "volatile": { "gauges": {..}, "histograms": {..} },  // wall-clock etc.
//     "flight":   { "post_mortem": str|null, "capacity", "overwritten",
//                   "signature",
//                   "events": [ {track,kind,iteration,lane?,value} ] }
//   }
//
// /2 is additive over /1: "perf_available" and the optional "flight"
// post-mortem section (present when the flight recorder was enabled; its
// events are iteration-indexed with no timestamps, so the section is
// bit-identical across thread counts). The "metrics" section is
// deterministic (bit-identical across thread counts); "volatile" holds
// run-varying values like host wall-clock. "openmp" and "threads_enabled"
// stay in the schema but read false and true in every build: all parallel
// loops run on the util thread pool, which every build links.
//
// The same registry also serializes as a bench-ledger record
// ("cmesolve.bench/1"): provenance + two FLAT name->number maps
// ("deterministic" compared exactly by tools/cme_bench_diff, "volatile"
// held to a ratio band; histograms flatten to .count/.min/.max/.mean).
//
#include <iosfwd>
#include <string>

namespace cmesolve::obs {

/// Free-form provenance key/value merged into the "provenance" object
/// (e.g. "program", "format", "scale", "device.name"). Last set wins.
void set_context(const std::string& key, const std::string& value);

/// Serialize the current registry + provenance as a run report.
void write_report(std::ostream& os);
bool write_report_file(const std::string& path);

/// Serialize the current registry + provenance as a regression-ledger bench
/// record ("cmesolve.bench/1", see tools/cme_bench_diff).
void write_bench_record(std::ostream& os);
bool write_bench_record_file(const std::string& path);

/// Output paths. CMESOLVE_TRACE / CMESOLVE_REPORT / CMESOLVE_FLIGHT /
/// CMESOLVE_BENCH set these at startup; programmatic sinks may override.
/// Empty = no file output.
void set_trace_path(const std::string& path);
void set_report_path(const std::string& path);
std::string trace_path();
std::string report_path();
void set_bench_path(const std::string& path);
std::string bench_path();
// (set_flight_path / flight_path live in obs/flight_recorder.hpp.)

/// Write the trace/report/flight/bench outputs to their configured paths
/// (no-op for unset paths). Idempotent per path; also registered via atexit
/// when any of the env vars is present, so instrumented binaries need no
/// explicit call.
void flush_outputs();

}  // namespace cmesolve::obs
