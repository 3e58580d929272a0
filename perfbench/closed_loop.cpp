//===- closed_loop.cpp - The sunspider and trace-hostile workloads -------------===//
//
// One client, closed loop: each program runs on a fresh Engine with default
// EngineOptions, the next one starts when the previous returns, and a pass
// visits every program once in an order shuffled by the seed.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

namespace perfbench {

using namespace tracejit;

namespace {

/// What setup_s times after constructing an Engine: one short hot loop, so
/// the set-up includes the JIT's first recording and compile.
const char *const WarmupScript =
    "var s = 0;\n"
    "for (var i = 0; i < 2000; ++i) { s = (s + i * 3) % 1009; }\n"
    "print(s);\n";
constexpr int MinPasses = 5;

/// The counters that must repeat exactly from one fresh-engine run of a
/// program to the next (single thread, no timers).
std::vector<uint64_t> exactCounts(const VMStats &S, uint64_t NativeBytes) {
  return {S.BytecodesInterpreted,    S.TracesStarted,
          S.TracesCompleted,         S.TracesAborted,
          S.LirEmitted,              S.LirAfterForwardFilters,
          S.LirAfterBackwardFilters, S.GuardsEliminated,
          S.InsHoisted,              S.OverflowChecksFolded,
          S.EntryDeopts,             NativeBytes,
          S.SideExits};
}

struct ClosedLoop {
  const Options &O;
  const std::vector<Program> &Programs;
  Report R;
  std::mt19937_64 Rng;
  std::vector<Outcome> Reference;
  Outcome WarmupReference;
  std::vector<size_t> Order;

  ClosedLoop(const Options &O, const std::vector<Program> &P)
      : O(O), Programs(P), Rng(O.Seed), Order(P.size()) {
    std::iota(Order.begin(), Order.end(), 0);
  }

  /// Reference outputs, computed before any timed or set-up work and
  /// before the peak-memory mark is reset.
  void makeReferences() {
    for (const Program &P : Programs)
      Reference.push_back(referenceOutcome(P.Source));
    WarmupReference = referenceOutcome(WarmupScript);
    if (O.CorruptReference)
      Reference[0].Output += "<corrupted by --self-check>";
    if (!resetPeakRss())
      R.note("could not reset the peak-memory mark: peak_rss_mb includes "
             "the reference engines");
  }

  /// Run program \p I on a fresh default engine; returns eval wall ms.
  double runPlain(size_t I) {
    Engine E;
    Outcome Out = evalCaptured(E, Programs[I].Source);
    R.check(Out.sameAs(Reference[I]), Programs[I].Name);
    return Out.ms();
  }

  /// Set-up: a fresh default engine and the warm-up script, checked like
  /// any other output. Returns its wall time in seconds.
  double setup() {
    auto T0 = Clock::now();
    Engine E;
    Outcome Out = evalCaptured(E, WarmupScript);
    double S = msBetween(T0, Out.End) / 1000.0;
    R.check(Out.sameAs(WarmupReference), "warm-up script");
    return S;
  }

  /// Each program's fastest eval: the best-of-N convention of
  /// bench/suite.cpp, and the statistic least moved by the host's slow
  /// periods.
  static std::vector<double>
  fastest(const std::vector<std::vector<double>> &Samples) {
    std::vector<double> Best;
    for (const std::vector<double> &S : Samples)
      Best.push_back(quantile(S, 0));
    return Best;
  }

  void plain();
  void traced();
};

void ClosedLoop::plain() {
  makeReferences();

  std::vector<std::vector<double>> Samples(Programs.size());
  std::vector<double> PassMs, Latency, SetupS;
  auto Deadline = Clock::now() + std::chrono::duration<double>(O.Seconds);
  while ((int)PassMs.size() < MinPasses || Clock::now() < Deadline) {
    SetupS.push_back(setup());
    std::shuffle(Order.begin(), Order.end(), Rng);
    auto P0 = Clock::now();
    for (size_t I : Order) {
      double Ms = runPlain(I);
      Samples[I].push_back(Ms);
      Latency.push_back(Ms);
    }
    PassMs.push_back(msBetween(P0, Clock::now()));
  }

  // A request is one program run; its latency is the program's fastest
  // run, for the same reason program_ms_geomean uses it.
  std::vector<double> Best = fastest(Samples);
  R.add("program_ms_geomean", geomean(Best), "ms");
  R.add("latency_ms_p50", median(Best), "ms");
  R.add("latency_ms_tail", quantile(Best, 1), "ms");
  R.add("setup_s", median(SetupS), "s");
  R.add("peak_rss_mb", peakRssMb(), "MiB");

  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "whole run: passes=%zu pass_ms_p50=%.3f pass_ms_p90=%.3f evals=%zu "
           "eval_ms_p50=%.3f eval_ms_p99=%.3f set-ups=%zu setup_ms_p10=%.4f "
           "setup_ms_p90=%.4f",
           PassMs.size(), quantile(PassMs, 0.5), quantile(PassMs, 0.9),
           Latency.size(), quantile(Latency, 0.5), quantile(Latency, 0.99),
           SetupS.size(), quantile(SetupS, 0.1) * 1000, quantile(SetupS, 0.9) * 1000);
  R.note(Buf);
  for (size_t I = 0; I < Programs.size(); ++I) {
    snprintf(Buf, sizeof(Buf), "  %-26s best %9.3f ms  median %9.3f ms  (n=%zu)",
             Programs[I].Name.c_str(), Best[I], median(Samples[I]),
             Samples[I].size());
    R.note(Buf);
  }
}

void ClosedLoop::traced() {
  makeReferences();

  auto Start = Clock::now();
  SpanLog Log(Start);
  LayerTotals T;
  std::vector<std::vector<double>> PlainS(Programs.size()),
      TracedS(Programs.size());
  std::vector<std::vector<uint64_t>> FirstCounts(Programs.size());
  std::vector<double> EvalMs;
  std::string Inexact;
  int TracedPasses = 0;
  uint64_t Request = 0;
  EngineOptions TracedOpts;
  TracedOpts.CollectStats = true;

  auto Deadline = Start + std::chrono::duration<double>(O.Seconds);
  // Plain and traced passes alternate so drift hits both sides evenly.
  while (TracedPasses < MinPasses || Clock::now() < Deadline) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order)
      PlainS[I].push_back(runPlain(I));

    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      const Program &P = Programs[I];
      ++Request;
      uint64_t Root = Log.add({0, 0, Request, "eval", P.Name, ~0u, 0, 0});
      timeFrontAndAnalysis(P.Source, T, &Log, Root, Request, P.Name);

      Engine E(TracedOpts);
      SpanListener L;
      E.addEventListener(&L);
      Outcome Out = evalCaptured(E, P.Source);
      E.removeEventListener(&L);
      R.check(Out.sameAs(Reference[I]), P.Name + " (traced)");
      Log.span(Root).StartUs = Log.us(Out.Start);
      Log.span(Root).EndUs = Log.us(Out.End);
      recordListenerSpans(L, T, &Log, Root, Request, P.Name);

      LayerTotals One;
      addEngineTotals(One, E, Out.ms());
      std::vector<uint64_t> Counts = exactCounts(One.Stats, One.NativeBytes);
      if (FirstCounts[I].empty())
        FirstCounts[I] = Counts;
      else if (Counts != FirstCounts[I] && Inexact.empty())
        Inexact = P.Name;
      addEngineTotals(T, E, Out.ms());
      TracedS[I].push_back(Out.ms());
      EvalMs.push_back(Out.ms());
    }
    ++TracedPasses;
  }

  addLayerMetrics(R, T, TracedPasses);
  R.add("serve.eval_ms_p50", quantile(EvalMs, 0.5), "ms");
  R.add("serve.eval_ms_p99", quantile(EvalMs, 0.99), "ms");
  R.add("trace.overhead_ratio",
        ratio(geomean(fastest(TracedS)), geomean(fastest(PlainS))), "ratio");

  R.note("traced passes=" + std::to_string(TracedPasses) +
         " (metrics are per pass over all programs)");
  R.note(Inexact.empty()
             ? "counts exact: every program repeated its counters on all " +
                   std::to_string(TracedPasses) + " fresh-engine runs"
             : "COUNTS NOT EXACT: " + Inexact +
                   " gave different counters on two fresh-engine runs");
  if (!O.SpansPath.empty() && !Log.write(O.SpansPath))
    R.note("could not write spans to " + O.SpansPath);
}

} // namespace

Report runClosedLoop(const Options &O, const std::vector<Program> &Programs) {
  ClosedLoop C(O, Programs);
  if (O.Trace)
    C.traced();
  else
    C.plain();
  return std::move(C.R);
}

} // namespace perfbench
