//===- bench.h - Repository benchmark: shared declarations ---------------------===//
//
// The benchmark drives the engine only through public entry points
// (Engine, ScriptServer, compileSource, analyzeScript) and measures with its
// own clock. See README.md in this directory for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;      ///< Traced runs write their spans here.
  bool CorruptReference = false; ///< Self-check: one reference is wrong.
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run prints: the JSON result line plus human-readable notes.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Count one checked output; a mismatch makes the run incorrect.
  void check(bool Ok, const std::string &What);
};

// --- Statistics -----------------------------------------------------------------

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(const std::vector<double> &V);
double geomean(const std::vector<double> &V);
/// A / B, or 0 when B is 0 (keeps the JSON free of inf/nan).
double ratio(double A, double B);
/// Reset the process's peak resident memory to its current resident
/// memory, after returning freed heap to the system; false if the kernel
/// refused. Reference outputs are computed before this, so they do not
/// count in peakRssMb().
bool resetPeakRss();
/// Peak resident memory (VmHWM) since the last resetPeakRss(), in MiB.
double peakRssMb();
/// CPUs this process may run on (what `nproc` prints).
unsigned usableCpus();

// --- Programs and reference outputs ----------------------------------------------

struct Program {
  std::string Name;
  std::string Source;
};

std::vector<Program> sunspiderPrograms();
std::vector<Program> traceHostilePrograms();

/// What an eval produced: print output, or the error text on failure, and
/// when the eval call started and returned.
struct Outcome {
  bool Ok = false;
  std::string Output;
  Clock::time_point Start{}, End{};
  double ms() const { return msBetween(Start, End); }
  bool sameAs(const Outcome &O) const {
    return Ok == O.Ok && Output == O.Output;
  }
};

/// Evaluate \p Source on \p E, capturing print output and timing the
/// eval call alone.
Outcome evalCaptured(tracejit::Engine &E, const std::string &Source);
/// The reference: the same source on a fresh JIT-off engine.
Outcome referenceOutcome(const std::string &Source);

// --- Traced runs ---------------------------------------------------------------

/// One span of the traced run. Times are microseconds on the benchmark's
/// clock since the run started; Parent is 0 for a root (eval/request) span.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  std::string Name;
  std::string Label; ///< Program or request class.
  uint32_t Fragment = ~0u;
  double StartUs = 0;
  double EndUs = 0;
};

/// Spans kept in memory, written as JSON when the run ends.
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Origin) : Origin(Origin) {}
  double us(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  }
  /// Store \p S under the next id (ids start at 1) and return the id.
  uint64_t add(Span S);
  Span &span(uint64_t Id) { return Spans[Id - 1]; }
  bool write(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// Everything the traced run adds up for the per-layer metrics.
struct LayerTotals {
  tracejit::VMStats Stats;
  double FrontendMs = 0;
  double AnalysisMs = 0;
  double EvalMs = 0; ///< Wall time of the traced evals.
  uint64_t NativeBytes = 0;
  uint64_t Fragments = 0;
  std::vector<double> RecordSpanUs;
  std::vector<double> QueueLagUs;
};

/// A benchmark-owned listener that turns RecordStart -> compiled/abort and
/// CompileJobQueued -> compiled/dropped into spans keyed by fragment id,
/// stamped with the benchmark's clock.
class SpanListener final : public tracejit::JitEventListener {
public:
  struct Interval {
    Clock::time_point Start;
    Clock::time_point End;
    uint32_t Fragment;
    bool Queue; ///< Compile-queue lag rather than a recording.
  };
  void onEvent(const tracejit::JitEvent &E) override;
  /// Spans closed since the last call.
  std::vector<Interval> take();

private:
  std::map<uint32_t, Clock::time_point> Recording, Queued;
  std::vector<Interval> Closed;
};

/// Move the listener's closed spans into \p T (and \p Log, as children of
/// \p Parent).
void recordListenerSpans(SpanListener &L, LayerTotals &T, SpanLog *Log,
                         uint64_t Parent, uint64_t Request,
                         const std::string &Label);

/// Fold one traced engine's stats() and fragmentProfiles() into \p T.
void addEngineTotals(LayerTotals &T, const tracejit::Engine &E, double EvalMs);

/// Time the frontend (compileSource) and analysis (analyzeScript) of
/// \p Source with direct calls on a scratch engine; adds spans as children
/// of \p Parent when \p Log is given.
void timeFrontAndAnalysis(const std::string &Source, LayerTotals &T,
                          SpanLog *Log, uint64_t Parent, uint64_t Request,
                          const std::string &Label);

/// Emit every per-layer metric derived from \p T, normalized per \p Units
/// (passes or requests).
void addLayerMetrics(Report &R, const LayerTotals &T, double Units);

// --- Workloads -------------------------------------------------------------------

Report runClosedLoop(const Options &O, const std::vector<Program> &Programs);
Report runServe(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
