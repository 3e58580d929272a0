//===- main.cpp - Repository benchmark entry point -------------------------------===//
//
//   perfbench --workload sunspider|trace-hostile|serve --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//   perfbench --self-check
//
// Prints human-readable notes, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit codes: 0 every output correct, 2 bad arguments, 3 refused to run
// (serve on too few CPUs), 4 some output was wrong (the JSON line is still
// printed, with "correct": false).
// --self-check runs each workload briefly against a deliberately wrong
// reference output and exits 0 only if every run reports the mismatch.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  fprintf(stderr,
          "error: %s\nusage: perfbench --workload sunspider|trace-hostile|serve "
          "--seed N --seconds S --trace 0|1 [--spans FILE]\n"
          "       perfbench --self-check\n",
          Msg);
  return 2;
}

std::string number(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

void print(const Report &R) {
  for (const std::string &N : R.Notes)
    printf("# %s\n", N.c_str());
  printf("# fail_ratio=%s (%llu failed of %llu attempted)\n",
         number(ratio((double)R.Failed, (double)R.Attempted)).c_str(),
         (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  for (const Metric &M : R.Metrics)
    printf("%-34s %16s %s\n", M.Name.c_str(), number(M.Value).c_str(),
           M.Unit.c_str());
  std::string J = "{\"correct\": ";
  J += R.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + number(M.Value) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  printf("%s\n", J.c_str());
  fflush(stdout);
}

Report run(const Options &O) {
  if (O.Workload == "sunspider")
    return runClosedLoop(O, sunspiderPrograms());
  if (O.Workload == "trace-hostile")
    return runClosedLoop(O, traceHostilePrograms());
  return runServe(O);
}

int selfCheck() {
  bool Ok = true;
  for (const char *W : {"sunspider", "trace-hostile", "serve"}) {
    Options O;
    O.Workload = W;
    O.Seconds = 0.5;
    O.CorruptReference = true;
    Report R = run(O);
    bool Caught = !R.Correct && R.Failed > 0;
    printf("self-check %-14s wrong reference %s (failed %llu of %llu)\n", W,
           Caught ? "caught" : "NOT CAUGHT", (unsigned long long)R.Failed,
           (unsigned long long)R.Attempted);
    Ok &= Caught;
  }
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--self-check")
      return selfCheck();
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = atof(V.c_str());
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace must be 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--spans") {
      O.SpansPath = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || (O.Workload != "sunspider" &&
                        O.Workload != "trace-hostile" && O.Workload != "serve"))
    return usage("--workload must be sunspider, trace-hostile or serve");
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");
  Report R = run(O);
  if (R.Attempted == 0) {
    for (const std::string &N : R.Notes)
      fprintf(stderr, "%s\n", N.c_str());
    return 3;
  }
  print(R);
  return R.Correct ? 0 : 4;
}
