//===- common.cpp - Statistics, programs, references and tracing --------------===//

#include "bench.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "analysis/analysis.h"
#include "frontend/parser.h"
#include "suite.h"

namespace perfbench {

using namespace tracejit;

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  Correct = false;
  if (Failed <= 10)
    note("WRONG OUTPUT: " + What);
}

// --- Statistics -----------------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (double)(V.size() - 1);
  size_t Lo = (size_t)Pos;
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - (double)Lo);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

double ratio(double A, double B) { return B == 0 ? 0 : A / B; }

bool resetPeakRss() {
  malloc_trim(0); // return the freed heap, or it would count as a floor
  std::ofstream F("/proc/self/clear_refs");
  F << "5"; // "5" resets the peak (VmHWM) to the current RSS
  F.flush();
  return (bool)F;
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // the value is in kB
  return 0;
}

unsigned usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return (unsigned)CPU_COUNT(&Set);
}

// --- Programs -------------------------------------------------------------------

std::vector<Program> sunspiderPrograms() {
  std::vector<Program> Out;
  for (const tracejit_bench::BenchProgram &P : tracejit_bench::suite())
    if (P.ExpectTraced)
      Out.push_back({P.Name, P.Source});
  return Out;
}

// The two trace-hostile kernels below are the `megamorphic` and `deep-call`
// kernels of bench/tier_hostile.cpp, which defines them file-locally.

// Eight shapes through one hot property site: recordings abort at the
// site and the loop side-exits on every shape change.
static const char *Megamorphic = R"js(
var objs = [];
for (var i = 0; i < 8; ++i) {
  var o = {};
  if (i == 0) { o.a = 1; }
  if (i == 1) { o.b = 1; o.a = 2; }
  if (i == 2) { o.c = 1; o.a = 3; }
  if (i == 3) { o.d = 1; o.a = 4; }
  if (i == 4) { o.e = 1; o.a = 5; }
  if (i == 5) { o.f = 1; o.a = 6; }
  if (i == 6) { o.g = 1; o.a = 7; }
  if (i == 7) { o.h = 1; o.a = 8; }
  objs[i] = o;
}
var t = 0;
for (var j = 0; j < 400000; ++j) {
  t = t + objs[j % 8].a;
}
print(t);
)js";

// A call chain deeper than MaxInlineDepth: recording aborts at the inline
// limit and the loop runs on the interpreter's call/return path.
static const char *DeepCall = R"js(
function fA(x) { return x + 1; }
function fB(x) { return fA(x) + 1; }
function fC(x) { return fB(x) + 1; }
function fD(x) { return fC(x) + 1; }
function fE(x) { return fD(x) + 1; }
function fF(x) { return fE(x) + 1; }
function fG(x) { return fF(x) + 1; }
function fH(x) { return fG(x) + 1; }
function fI(x) { return fH(x) + 1; }
function fJ(x) { return fI(x) + 1; }
var t = 0;
for (var i = 0; i < 100000; ++i) t = t + fJ(i & 1023);
print(t);
)js";

std::vector<Program> traceHostilePrograms() {
  std::vector<Program> Out;
  for (const tracejit_bench::BenchProgram &P : tracejit_bench::suite())
    if (!P.ExpectTraced)
      Out.push_back({P.Name, P.Source});
  Out.push_back({"megamorphic", Megamorphic});
  Out.push_back({"deep-call", DeepCall});
  return Out;
}

// --- Evaluation and references -----------------------------------------------------

Outcome evalCaptured(Engine &E, const std::string &Source) {
  Outcome Out;
  E.setPrintHook([&Out](const std::string &S) { Out.Output += S; });
  Out.Start = Clock::now();
  EvalResult R = E.eval(Source);
  Out.End = Clock::now();
  E.setPrintHook([](const std::string &) {});
  Out.Ok = R.ok();
  if (!Out.Ok)
    Out.Output += "\n" + R.Err.describe();
  return Out;
}

Outcome referenceOutcome(const std::string &Source) {
  EngineOptions O;
  O.EnableJit = false;
  Engine E(O);
  return evalCaptured(E, Source);
}

// --- Spans ----------------------------------------------------------------------------

uint64_t SpanLog::add(Span S) {
  S.Id = Spans.size() + 1;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if ((unsigned char)C < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\"clock\": \"steady_clock microseconds since run start\", "
       "\"spans\": [\n";
  char Buf[512];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    snprintf(Buf, sizeof(Buf),
             "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
             "\"name\": \"%s\", \"label\": \"%s\", \"fragment\": %lld, "
             "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
             (unsigned long long)S.Id, (unsigned long long)S.Parent,
             (unsigned long long)S.Request, jsonEscape(S.Name).c_str(),
             jsonEscape(S.Label).c_str(),
             S.Fragment == ~0u ? -1LL : (long long)S.Fragment, S.StartUs,
             S.EndUs, I + 1 < Spans.size() ? "," : "");
    F << Buf;
  }
  F << "]}\n";
  return (bool)F;
}

void SpanListener::onEvent(const JitEvent &E) {
  auto Now = Clock::now();
  auto close = [&](std::map<uint32_t, Clock::time_point> &Open, bool Queue) {
    auto It = Open.find(E.FragmentId);
    if (It == Open.end())
      return;
    Closed.push_back({It->second, Now, E.FragmentId, Queue});
    Open.erase(It);
  };
  switch (E.Kind) {
  case JitEventKind::RecordStart:
    Recording[E.FragmentId] = Now;
    break;
  case JitEventKind::CompileJobQueued:
    Queued[E.FragmentId] = Now;
    break;
  case JitEventKind::TreeCompiled:
  case JitEventKind::BranchCompiled:
  case JitEventKind::CompileJobDropped:
    close(Recording, false);
    close(Queued, true);
    break;
  case JitEventKind::RecordAbort:
    close(Recording, false);
    break;
  default:
    break;
  }
}

std::vector<SpanListener::Interval> SpanListener::take() {
  std::vector<Interval> Out;
  Out.swap(Closed);
  return Out;
}

void recordListenerSpans(SpanListener &L, LayerTotals &T, SpanLog *Log,
                         uint64_t Parent, uint64_t Request,
                         const std::string &Label) {
  for (const SpanListener::Interval &C : L.take()) {
    double Us = std::chrono::duration<double, std::micro>(C.End - C.Start)
                    .count();
    (C.Queue ? T.QueueLagUs : T.RecordSpanUs).push_back(Us);
    if (Log)
      Log->add({0, Parent, Request, C.Queue ? "compile-queue-lag" : "record",
                Label, C.Fragment, Log->us(C.Start), Log->us(C.End)});
  }
}

void timeFrontAndAnalysis(const std::string &Source, LayerTotals &T,
                          SpanLog *Log, uint64_t Parent, uint64_t Request,
                          const std::string &Label) {
  EngineOptions O;
  O.EnableJit = false; // no code cache: only the frontend tables matter
  Engine Scratch(O);
  VMContext &Ctx = Scratch.context();
  size_t First = Ctx.Scripts.size();
  EngineError Err;
  auto T0 = Clock::now();
  compileSource(Ctx, Source, &Err);
  auto T1 = Clock::now();
  std::vector<std::unique_ptr<ScriptAnalysis>> Analyses;
  for (size_t I = First; I < Ctx.Scripts.size(); ++I)
    Analyses.push_back(analyzeScript(*Ctx.Scripts[I], Ctx.Globals.size()));
  auto T2 = Clock::now();
  T.FrontendMs += msBetween(T0, T1);
  T.AnalysisMs += msBetween(T1, T2);
  if (Log) {
    Log->add({0, Parent, Request, "frontend", Label, ~0u, Log->us(T0),
              Log->us(T1)});
    Log->add({0, Parent, Request, "analysis", Label, ~0u, Log->us(T1),
              Log->us(T2)});
  }
}

void addEngineTotals(LayerTotals &T, const Engine &E, double EvalMs) {
  T.Stats.accumulate(E.stats());
  T.EvalMs += EvalMs;
  for (const FragmentProfile &P : E.fragmentProfiles()) {
    T.NativeBytes += P.NativeBytes;
    ++T.Fragments;
  }
}

// --- Per-layer metrics -------------------------------------------------------------

void addLayerMetrics(Report &R, const LayerTotals &T, double Units) {
  const VMStats &S = T.Stats;
  auto per = [&](double V) { return ratio(V, Units); };
  auto actMs = [&](Activity A) {
    return S.ActivitySeconds[(size_t)A] * 1000.0;
  };
  double InterpMs = actMs(Activity::Interpret);
  double MonitorMs = actMs(Activity::Monitor);
  double RecordMs = actMs(Activity::RecordInterpret);
  double CompileMs = actMs(Activity::Compile);
  double NativeMs = actMs(Activity::Native);
  double ExitMs = actMs(Activity::ExitOverhead);
  double Attributed = InterpMs + MonitorMs + RecordMs + CompileMs + NativeMs +
                      ExitMs + T.FrontendMs + T.AnalysisMs;
  double Bytecodes = (double)(S.BytecodesInterpreted + S.BytecodesRecorded +
                              S.BytecodesNative);

  R.add("frontend.compile_ms", per(T.FrontendMs), "ms");
  R.add("analysis.ms", per(T.AnalysisMs), "ms");
  R.add("analysis.guards_elided", per(S.StaticGuardsElided), "count");
  R.add("interp.ms", per(InterpMs), "ms");
  R.add("interp.bytecodes", per(S.BytecodesInterpreted), "count");
  R.add("interp.ns_per_bytecode", ratio(InterpMs * 1e6, S.BytecodesInterpreted),
        "ns");
  R.add("monitor.ms", per(MonitorMs), "ms");
  R.add("trace.enters", per(S.TraceEnters), "count");
  R.add("trace.blacklisted", per(S.LoopsBlacklisted), "count");
  R.add("record.ms", per(RecordMs), "ms");
  R.add("record.started", per(S.TracesStarted), "count");
  R.add("record.completed", per(S.TracesCompleted), "count");
  R.add("record.aborted", per(S.TracesAborted), "count");
  R.add("record.completion_ratio", ratio(S.TracesCompleted, S.TracesStarted),
        "ratio");
  R.add("record.span_us_p50", quantile(T.RecordSpanUs, 0.5), "us");
  R.add("record.span_us_p90", quantile(T.RecordSpanUs, 0.9), "us");
  R.add("exit.ms", per(ExitMs), "ms");
  R.add("exit.side_exits", per(S.SideExits), "count");
  R.add("exit.per_enter", ratio(S.SideExits, S.TraceEnters), "ratio");
  R.add("trace.stitched", per(S.StitchedTransfers), "count");
  R.add("lir.emitted", per(S.LirEmitted), "count");
  R.add("lir.after_forward", per(S.LirAfterForwardFilters), "count");
  R.add("lir.after_backward", per(S.LirAfterBackwardFilters), "count");
  R.add("lir.kept_ratio", ratio(S.LirAfterBackwardFilters, S.LirEmitted),
        "ratio");
  R.add("lir.guards_eliminated", per(S.GuardsEliminated), "count");
  R.add("lir.ins_hoisted", per(S.InsHoisted), "count");
  R.add("lir.overflow_folded", per(S.OverflowChecksFolded), "count");
  R.add("lir.entry_deopts", per(S.EntryDeopts), "count");
  R.add("compile.ms", per(CompileMs), "ms");
  R.add("compile.us_per_lir",
        ratio(CompileMs * 1000.0, S.LirAfterForwardFilters), "us");
  R.add("jit.native_bytes", per(T.NativeBytes), "bytes");
  R.add("jit.fragments", per(T.Fragments), "count");
  R.add("jit.cache_flushes", per(S.CacheFlushes), "count");
  R.add("native.ms", per(NativeMs), "ms");
  R.add("native.bytecode_share", ratio(S.BytecodesNative, Bytecodes), "ratio");
  R.add("compile_queue.queued", per(S.CompileJobsQueued), "count");
  R.add("compile_queue.published", per(S.CompileJobsPublished), "count");
  R.add("compile_queue.drop_ratio",
        ratio(S.CompileJobsDropped, S.CompileJobsQueued), "ratio");
  R.add("compile_queue.lag_us_p50", quantile(T.QueueLagUs, 0.5), "us");
  R.add("compile_queue.lag_us_p99", quantile(T.QueueLagUs, 0.99), "us");
  R.add("gc.count", per(S.GCs), "count");
  R.add("ic.hit_ratio", ratio(S.IcHits, S.IcHits + S.IcMisses), "ratio");
  R.add("ic.megamorphic_sites", per(S.IcMegamorphicSites), "count");
  R.add("attribution.coverage", ratio(Attributed, T.EvalMs), "ratio");
  R.add("split.native_compile_record",
        ratio(NativeMs + CompileMs + RecordMs, Attributed), "ratio");
  R.add("split.interp_monitor_exit",
        ratio(InterpMs + MonitorMs + ExitMs, Attributed), "ratio");
}

} // namespace perfbench
