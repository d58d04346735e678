// cpdbench: the benchmark driver. run.py builds it beside cpd_serve and
// calls one subcommand per step:
//   cpdbench prepare-graph  --dir D --seed N
//   cpdbench train          --dir D --iters I --seconds S [--check 1] [--dense F] ...
//   cpdbench serve          --dir D --port P --seed N --seconds S ...
//   cpdbench ingest         --dir D --port P --seed N --seconds S ...
//   cpdbench prepare-reload --dir D --seed N
//   cpdbench reload         --dir D --port P --seed N --seconds S ...
// Every workload subcommand takes --trace 0|1 and --trace_out PATH.

#include <cstdio>
#include <string>

#include "util/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cpdbench <subcommand> [--flag value]...\n");
    return 2;
  }
  // The library's Info lines (per-iteration training logs) would swamp the
  // benchmark's own output.
  cpd::SetLogLevel(cpd::LogLevel::kWarning);
  const std::string command = argv[1];
  const bench::Args args(argc, argv, 2);
  if (command == "prepare-graph") return bench::PrepareGraph(args);
  if (command == "train") return bench::TrainWorkload(args);
  if (command == "serve") return bench::ServeWorkload(args);
  if (command == "ingest") return bench::IngestWorkload(args);
  if (command == "prepare-reload") return bench::PrepareReload(args);
  if (command == "reload") return bench::ReloadWorkload(args);
  std::fprintf(stderr, "cpdbench: unknown subcommand '%s'\n", command.c_str());
  return 2;
}
