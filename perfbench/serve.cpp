//===- serve.cpp - The serve workload: open-loop traffic on a ScriptServer -------===//
//
// Two worker contexts share one off-thread CompileService. The main thread
// is the load generator: it sends requests at seeded Poisson arrival times
// whether or not earlier ones have finished (open loop), and each request
// is timed from when it was due. No deadlines, so no watchdog thread.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <unordered_map>

#include "jit/compile_queue.h"
#include "serve/server.h"

namespace perfbench {

using namespace tracejit;
using namespace tracejit::serve;

namespace {

constexpr uint32_t Workers = 2;
/// Threads the workload needs: workers, the shared compiler, the generator.
constexpr unsigned ThreadsNeeded = Workers + 2;
/// The p99 limit a ladder rung must meet to count towards goodput_rps.
constexpr double LatencyLimitMs = 50;
/// Offered rate for the latency metrics, well below saturation.
constexpr double NominalRps = 300;
/// How long one server serves at the nominal rate (about 300 requests).
/// Engines keep every request's scripts and their long evals grow with
/// every request served: over a 15 s lifetime p90 latency rose from 1 ms
/// to 10-46 ms, so one long-lived server would measure its own age.
constexpr double ServerLifetimeS = 1;
/// Share of a plain run spent at the nominal rate; the ladder gets the rest.
constexpr double NominalShare = 0.8;
/// The fixed ladder goodput_rps climbs, in requests per second.
constexpr double Ladder[] = {800, 1200, 1600, 2000, 2400, 3000};
constexpr int WarmupRequests = 16;

constexpr int NumClasses = 3;
const char *const ClassNames[NumClasses] = {"short", "long", "property"};

struct Request {
  int Class = 0;
  std::string Source;
  Outcome Reference;
};

/// Request scripts from the seed. Every request carries its own constants,
/// so nothing compiled for one request can serve another. The three classes
/// come in equal shares; the mix is arbitrary, not taken from a real
/// traffic log.
class RequestGen {
public:
  explicit RequestGen(std::mt19937_64 &Rng) : Rng(Rng) {}

  Request next() {
    Request Q;
    Q.Class = std::uniform_int_distribution<int>(0, NumClasses - 1)(Rng);
    Q.Source = Q.Class == 0 ? shortLoops() : Q.Class == 1 ? longLoop()
                                                          : propertyLoop();
    Q.Reference = referenceOutcome(Q.Source);
    return Q;
  }

private:
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Rng);
  }
  std::string num(int Lo, int Hi) {
    return std::to_string(std::uniform_int_distribution<int>(Lo, Hi)(Rng));
  }

  // 10^2..10^3 trips of numeric and array work.
  std::string shortLoops() {
    std::string N =
        std::to_string((int)std::exp(uniform(std::log(100.0), std::log(1000.0))));
    return "var a = []; var s = " + num(1, 1000) + ";\n"
           "for (var i = 0; i < " + N + "; ++i) { a[i] = (i * " + num(1, 97) +
           " + " + num(0, 1000) + ") % 1009; }\n"
           "for (var j = 0; j < " + N + "; ++j) { s = (s + a[j] * " +
           num(1, 97) + ") % 1000003; }\nprint(s);\n";
  }

  // ~10^4 trips of integer arithmetic.
  std::string longLoop() {
    return "var x = " + num(1, 65520) + "; var t = 0;\n"
           "for (var i = 0; i < " + num(8000, 12000) + "; ++i) { x = (x * " +
           num(2, 1000) + " + " + num(0, 999) +
           ") % 65521; t = t + (x & 255); }\nprint(t);\n";
  }

  // A property loop over 1..6 object shapes (monomorphic to megamorphic).
  std::string propertyLoop() {
    std::string M = num(4, 16);
    return "var objs = [];\nfor (var k = 0; k < " + M +
           "; ++k) {\n  var o = {}; var sh = k % " + num(1, 6) + ";\n"
           "  if (sh == 1) { o.p1 = 1; }\n"
           "  if (sh == 2) { o.p2 = 1; o.q2 = 2; }\n"
           "  if (sh == 3) { o.p3 = 1; }\n"
           "  if (sh == 4) { o.p4 = 1; o.q4 = 2; }\n"
           "  if (sh == 5) { o.p5 = 1; }\n"
           "  o.v = k * " + num(1, 50) + " + " + num(0, 99) +
           ";\n  objs[k] = o;\n}\nvar t = 0;\nfor (var i = 0; i < " +
           num(1000, 4000) + "; ++i) { t = t + objs[i % " + M +
           "].v; }\nprint(t);\n";
  }

  std::mt19937_64 &Rng;
};

/// One or more server lifetimes at one offered rate.
struct Phase {
  double Rate = 0;
  std::vector<double> SetupS;    ///< One per server.
  std::vector<double> PeakRssMb; ///< One per server.
  double WallMs = 0;
  std::vector<Request> Requests;
  std::vector<double> LatencyMs, QueueMs, EvalMs, LateMs;
  std::array<std::vector<double>, NumClasses> ClassEvalMs;
  uint64_t Failed = 0;
  uint64_t OutstandingAtEnd = 0;
  bool BacklogGrew = false;

  double p99() const { return quantile(LatencyMs, 0.99); }
  bool meetsLimit() const {
    return Failed == 0 && !BacklogGrew && p99() <= LatencyLimitMs;
  }
  void append(Phase &&P) {
    Rate = P.Rate;
    SetupS.insert(SetupS.end(), P.SetupS.begin(), P.SetupS.end());
    PeakRssMb.insert(PeakRssMb.end(), P.PeakRssMb.begin(), P.PeakRssMb.end());
    WallMs += P.WallMs;
    for (Request &Q : P.Requests)
      Requests.push_back(std::move(Q));
    for (auto [To, From] : {std::pair{&LatencyMs, &P.LatencyMs},
                            {&QueueMs, &P.QueueMs},
                            {&EvalMs, &P.EvalMs},
                            {&LateMs, &P.LateMs},
                            {&ClassEvalMs[0], &P.ClassEvalMs[0]},
                            {&ClassEvalMs[1], &P.ClassEvalMs[1]},
                            {&ClassEvalMs[2], &P.ClassEvalMs[2]}})
      To->insert(To->end(), From->begin(), From->end());
    Failed += P.Failed;
    OutstandingAtEnd = std::max(OutstandingAtEnd, P.OutstandingAtEnd);
    BacklogGrew |= P.BacklogGrew;
  }
  double classGeomean() const {
    std::vector<double> Medians;
    for (const std::vector<double> &V : ClassEvalMs)
      if (!V.empty())
        Medians.push_back(median(V));
    return geomean(Medians);
  }
};

struct Serve {
  const Options &O;
  Report R;
  std::mt19937_64 Rng;
  RequestGen Gen;
  bool Corrupt;
  bool RssResetFailed = false;

  explicit Serve(const Options &O)
      : O(O), Rng(O.Seed), Gen(Rng), Corrupt(O.CorruptReference) {}

  Phase run(double Rate, double Seconds, bool CollectStats);
  std::vector<Phase> nominal(double Seconds, bool CollectStats);
  void checkResult(const RequestResult &RR, const Request &Q, Phase &P);
  void plain();
  void traced();
};

void Serve::checkResult(const RequestResult &RR, const Request &Q, Phase &P) {
  Outcome Got;
  Got.Ok = RR.Ok;
  Got.Output = RR.Ok ? RR.Output : RR.Output + "\n" + RR.Error;
  bool Ok = Got.sameAs(Q.Reference);
  R.check(Ok, std::string("serve ") + ClassNames[Q.Class] + " request");
  P.Failed += !Ok;
}

Phase Serve::run(double Rate, double Seconds, bool CollectStats) {
  Phase P;
  P.Rate = Rate;
  // Inputs and their reference outputs first: outside timing and setup.
  std::vector<double> DueMs;
  std::exponential_distribution<double> Gap(Rate);
  for (double T = Gap(Rng); T < Seconds; T += Gap(Rng))
    DueMs.push_back(T * 1000.0);
  std::vector<Request> Warm;
  for (int I = 0; I < WarmupRequests; ++I)
    Warm.push_back(Gen.next());
  for (size_t I = 0; I < DueMs.size(); ++I)
    P.Requests.push_back(Gen.next());
  if (Corrupt && !P.Requests.empty()) {
    P.Requests[0].Reference.Output += "<corrupted by --self-check>";
    Corrupt = false;
  }
  if (!resetPeakRss() && !RssResetFailed) {
    RssResetFailed = true;
    R.note("could not reset the peak-memory mark: peak_rss_mb includes "
           "the reference engines and earlier servers");
  }

  ServerConfig C;
  C.Workers = Workers;
  C.Engine.OffThreadCompile = true;
  C.Engine.CollectStats = CollectStats;

  // Set-up: server construction plus a warm-up burst served to completion.
  auto S0 = Clock::now();
  ScriptServer Server(C);
  std::unordered_map<uint64_t, size_t> WarmIds;
  for (size_t I = 0; I < Warm.size(); ++I)
    WarmIds[Server.submit(Warm[I].Source)] = I;
  Server.drain();
  P.SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
  for (const RequestResult &RR : Server.takeResults())
    checkResult(RR, Warm[WarmIds.at(RR.Id)], P);

  // The open loop: each request is sent at its due time, late or not.
  std::unordered_map<uint64_t, size_t> Ids;
  std::vector<Clock::time_point> Sent(DueMs.size());
  auto Start = Clock::now();
  for (size_t I = 0; I < DueMs.size(); ++I) {
    auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(DueMs[I]));
    std::this_thread::sleep_until(Due);
    Sent[I] = Clock::now();
    uint64_t Id = Server.submit(P.Requests[I].Source);
    if (Id == 0) {
      R.check(false, "serve request refused");
      ++P.Failed;
      continue;
    }
    Ids[Id] = I;
    P.LateMs.push_back(msBetween(Due, Sent[I]));
  }
  Server.drain();
  P.WallMs = msBetween(Start, Clock::now());
  Server.stop();
  P.PeakRssMb.push_back(peakRssMb());

  double LastDueMs = DueMs.empty() ? 0 : DueMs.back();
  for (const RequestResult &RR : Server.takeResults()) {
    size_t I = Ids.at(RR.Id);
    const Request &Q = P.Requests[I];
    checkResult(RR, Q, P);
    double SentMs = msBetween(Start, Sent[I]);
    P.LatencyMs.push_back(SentMs - DueMs[I] + RR.TotalMs);
    P.QueueMs.push_back(RR.QueueMs);
    P.EvalMs.push_back(RR.EvalMs);
    P.ClassEvalMs[Q.Class].push_back(RR.EvalMs);
    P.OutstandingAtEnd += SentMs + RR.TotalMs > LastDueMs;
  }
  // Little's law: a queue that keeps up holds about Rate * latency requests.
  P.BacklogGrew = (double)P.OutstandingAtEnd >
                  Rate * LatencyLimitMs / 1000.0 + Workers;
  return P;
}

/// The nominal rate for \p Seconds, on fresh servers that each serve for
/// about ServerLifetimeS.
std::vector<Phase> Serve::nominal(double Seconds, bool CollectStats) {
  int Servers = std::max(1, (int)std::lround(Seconds / ServerLifetimeS));
  std::vector<Phase> Out;
  for (int K = 0; K < Servers; ++K)
    Out.push_back(run(NominalRps, Seconds / Servers, CollectStats));
  return Out;
}

Phase merged(std::vector<Phase> Phases) {
  Phase All;
  for (Phase &P : Phases)
    All.append(std::move(P));
  return All;
}

/// The rate at which p99 crosses the limit: interpolated (in log p99)
/// between the last rung that met it and the first that did not.
double goodput(const std::vector<Phase> &Rungs) {
  const Phase &First = Rungs.front();
  if (!First.meetsLimit())
    return First.Rate * std::min(1.0, LatencyLimitMs / First.p99());
  size_t K = 0;
  while (K + 1 < Rungs.size() && Rungs[K + 1].meetsLimit())
    ++K;
  if (K + 1 == Rungs.size())
    return Rungs[K].Rate;
  const Phase &Lo = Rungs[K], &Hi = Rungs[K + 1];
  double PLo = std::max(Lo.p99(), 1e-3), PHi = Hi.p99();
  double F = PHi > LatencyLimitMs
                 ? (std::log(LatencyLimitMs) - std::log(PLo)) /
                       (std::log(PHi) - std::log(PLo))
                 : 0; // failed on errors or backlog, not on p99
  return Lo.Rate + (Hi.Rate - Lo.Rate) * std::clamp(F, 0.0, 1.0);
}

void Serve::plain() {
  std::vector<Phase> Servers = nominal(O.Seconds * NominalShare, false);
  std::string PerServer;
  char Buf[256];
  for (const Phase &P : Servers) {
    snprintf(Buf, sizeof(Buf), " %.3f/%.3f/%.3f/%.3f (n=%zu)", P.classGeomean(),
             quantile(P.LatencyMs, 0.5), P.p99(), quantile(P.EvalMs, 0.99),
             P.LatencyMs.size());
    PerServer += Buf;
  }
  Phase Nominal = merged(std::move(Servers));
  std::vector<double> SetupS = Nominal.SetupS;
  std::vector<Phase> Rungs;
  double RungSeconds = O.Seconds * (1 - NominalShare) / std::size(Ladder);
  for (double Rate : Ladder) {
    Rungs.push_back(run(Rate, RungSeconds, false));
    SetupS.push_back(Rungs.back().SetupS[0]);
    if (!Rungs.back().meetsLimit())
      break;
  }

  R.add("program_ms_geomean", Nominal.classGeomean(), "ms");
  R.add("latency_ms_p50", quantile(Nominal.LatencyMs, 0.5), "ms");
  // The tail is the p99 of service time (the eval), not of latency from
  // due time: on a shared host the latter's p99 is set by how late the
  // generator and workers wake up (see perfbench/README.md).
  R.add("latency_ms_tail", quantile(Nominal.EvalMs, 0.99), "ms");
  R.add("setup_s", median(SetupS), "s");
  // Each server's own peak, from a mark reset just before it is built.
  // Ladder rungs are left out: they serve more requests the faster the
  // engine is, which would tie memory to speed.
  R.add("peak_rss_mb", median(Nominal.PeakRssMb), "MiB");

  R.note("nominal class-geomean/p50/p99/eval-p99 ms per server:" + PerServer);
  snprintf(Buf, sizeof(Buf), "goodput_rps=%.1f req/s (p99 limit %.0f ms)",
           goodput(Rungs), LatencyLimitMs);
  R.note(Buf);
  snprintf(Buf, sizeof(Buf),
           "nominal %.0f req/s, all servers: n=%zu p99 from due=%.3f ms, queue "
           "p99=%.3f ms, generator late p99=%.3f ms, outstanding at end=%llu%s",
           NominalRps, Nominal.LatencyMs.size(), Nominal.p99(),
           quantile(Nominal.QueueMs, 0.99), quantile(Nominal.LateMs, 0.99),
           (unsigned long long)Nominal.OutstandingAtEnd,
           Nominal.BacklogGrew ? " BACKLOG GREW" : "");
  R.note(Buf);
  for (int C = 0; C < NumClasses; ++C) {
    snprintf(Buf, sizeof(Buf), "  class %-8s share %5.1f%%  eval median %.3f ms",
             ClassNames[C],
             100.0 * ratio(Nominal.ClassEvalMs[C].size(), Nominal.EvalMs.size()),
             median(Nominal.ClassEvalMs[C]));
    R.note(Buf);
  }
  for (const Phase &P : Rungs) {
    snprintf(Buf, sizeof(Buf),
             "rung %6.0f req/s: n=%zu p99=%.3f ms%s%s", P.Rate,
             P.LatencyMs.size(), P.p99(), P.BacklogGrew ? " backlog-grew" : "",
             P.meetsLimit() ? "" : "  (misses the limit)");
    R.note(Buf);
  }
}

/// Where one request class's replayed time went: the engine's activity
/// timers plus the directly timed frontend and analysis.
struct ClassSplit {
  size_t Requests = 0;
  double EvalMs = 0;
  double FrontendMs = 0, AnalysisMs = 0;
  std::array<double, (size_t)Activity::NumActivities> ActivityMs{};

  std::string describe(const char *Name) const {
    double Attributed = FrontendMs + AnalysisMs;
    for (double Ms : ActivityMs)
      Attributed += Ms;
    char Buf[160];
    snprintf(Buf, sizeof(Buf),
             "  class %-8s n=%zu eval %.3f ms/request; share of attributed "
             "time: frontend %.1f%% analysis %.1f%%",
             Name, Requests, ratio(EvalMs, Requests),
             100 * ratio(FrontendMs, Attributed),
             100 * ratio(AnalysisMs, Attributed));
    std::string Out = Buf;
    for (size_t A = 0; A < ActivityMs.size(); ++A) {
      snprintf(Buf, sizeof(Buf), " %s %.1f%%", activityName((Activity)A),
               100 * ratio(ActivityMs[A], Attributed));
      Out += Buf;
    }
    return Out;
  }
};

void Serve::traced() {
  Phase Plain = merged(nominal(O.Seconds * 0.3, false));
  Phase Stats = merged(nominal(O.Seconds * 0.3, true));

  // ScriptServer keeps its engines private, so the events come from a
  // replay of the same requests on pairs of benchmark-owned engines that
  // share one CompileService, as the server's workers do. A pair serves as
  // many requests as one server does before it is replaced.
  auto Start = Clock::now();
  SpanLog Log(Start);
  LayerTotals T;
  CompileService Svc;
  EngineOptions EO;
  EO.OffThreadCompile = true;
  EO.SharedCompileService = &Svc;
  EO.CollectStats = true;
  std::array<ClassSplit, NumClasses> Split;
  auto Deadline = Start + std::chrono::duration<double>(O.Seconds * 0.3);
  const size_t PerPair = (size_t)(ServerLifetimeS * NominalRps);
  size_t Replayed = 0;
  auto more = [&] {
    return Replayed < Stats.Requests.size() &&
           (Replayed < 10 || Clock::now() < Deadline);
  };
  while (more()) {
    Engine E0(EO), E1(EO);
    SpanListener L0, L1;
    E0.addEventListener(&L0);
    E1.addEventListener(&L1);
    for (size_t K = 0; K < PerPair && more(); ++K) {
      const Request &Q = Stats.Requests[Replayed];
      uint64_t Id = ++Replayed;
      Engine &E = Id % 2 ? E0 : E1;
      SpanListener &L = Id % 2 ? L0 : L1;
      const char *Label = ClassNames[Q.Class];
      ClassSplit &CS = Split[Q.Class];
      uint64_t Root = Log.add({0, 0, Id, "request", Label, ~0u, 0, 0});
      double FrontendMs = T.FrontendMs, AnalysisMs = T.AnalysisMs;
      timeFrontAndAnalysis(Q.Source, T, &Log, Root, Id, Label);
      CS.FrontendMs += T.FrontendMs - FrontendMs;
      CS.AnalysisMs += T.AnalysisMs - AnalysisMs;
      VMStats Before = E.stats();
      Outcome Out = evalCaptured(E, Q.Source);
      E.pumpCompileQueue();
      VMStats After = E.stats();
      for (size_t A = 0; A < CS.ActivityMs.size(); ++A)
        CS.ActivityMs[A] +=
            (After.ActivitySeconds[A] - Before.ActivitySeconds[A]) * 1000.0;
      ++CS.Requests;
      CS.EvalMs += Out.ms();
      R.check(Out.sameAs(Q.Reference), std::string("replayed ") + Label);
      T.EvalMs += Out.ms();
      Log.span(Root).StartUs = Log.us(Out.Start);
      Log.span(Root).EndUs = Log.us(Out.End);
      recordListenerSpans(L, T, &Log, Root, Id, Label);
    }
    E0.waitForCompileQueue();
    E1.waitForCompileQueue();
    // Jobs still pending when the pair retires belong to no request.
    recordListenerSpans(L0, T, &Log, 0, 0, "late-publish");
    recordListenerSpans(L1, T, &Log, 0, 0, "late-publish");
    E0.removeEventListener(&L0);
    E1.removeEventListener(&L1);
    addEngineTotals(T, E0, 0);
    addEngineTotals(T, E1, 0);
  }

  addLayerMetrics(R, T, (double)Replayed);
  R.add("serve.eval_ms_p50", quantile(Stats.EvalMs, 0.5), "ms");
  R.add("serve.eval_ms_p99", quantile(Stats.EvalMs, 0.99), "ms");
  R.add("trace.overhead_ratio",
        ratio(Stats.classGeomean(), Plain.classGeomean()), "ratio");

  // Figures only an open loop has; notes, because every per-layer metric
  // must exist on every workload.
  double Busy = 0;
  for (double Ms : Stats.EvalMs)
    Busy += Ms;
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "CollectStats phase: serve.queue_ms_p50=%.4f serve.queue_ms_p99=%.4f "
           "serve.worker_busy_ratio=%.4f serve.generator_late_ms_p99=%.4f",
           quantile(Stats.QueueMs, 0.5), quantile(Stats.QueueMs, 0.99),
           ratio(Busy, Workers * Stats.WallMs), quantile(Stats.LateMs, 0.99));
  R.note(Buf);
  R.note("replayed requests=" + std::to_string(Replayed) +
         " (layer metrics are per request); thread timing moves every serve "
         "count, so none is exact");
  for (int C = 0; C < NumClasses; ++C)
    R.note(Split[C].describe(ClassNames[C]));
  if (Stats.BacklogGrew)
    R.note("BACKLOG GREW at the nominal rate");
  if (!O.SpansPath.empty() && !Log.write(O.SpansPath))
    R.note("could not write spans to " + O.SpansPath);
}

} // namespace

Report runServe(const Options &O) {
  Serve S(O);
  unsigned Cpus = usableCpus();
  if (Cpus < ThreadsNeeded) {
    S.R.note("refusing to report: serve needs " + std::to_string(ThreadsNeeded) +
             " threads (workers + compiler + generator) but nproc is " +
             std::to_string(Cpus));
    return std::move(S.R);
  }
  S.R.note("nproc=" + std::to_string(Cpus) + ", threads used=" +
           std::to_string(ThreadsNeeded));
  if (O.Trace)
    S.traced();
  else
    S.plain();
  return std::move(S.R);
}

} // namespace perfbench
