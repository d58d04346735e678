#ifndef CPDBENCH_WORKLOADS_H_
#define CPDBENCH_WORKLOADS_H_

// Subcommands of the cpdbench driver (run.py calls them; each prints its
// result line last on stdout and returns the process exit code).

#include "workload_data.h"

namespace bench {

/// Planted Twitter-like graph -> docs/friends/diffusion TSVs, held-out
/// documents and the planted home community of each user.
int PrepareGraph(const Args& args);
/// Cold training through the library's public entry points (the calls
/// cpd_train makes), artifact write, and the quality checks.
int TrainWorkload(const Args& args);
/// Closed-loop query traffic against a running cpd_serve.
int ServeWorkload(const Args& args);
/// /admin/ingest batches beside reader connections.
int IngestWorkload(const Args& args);
/// Large generated artifacts and deltas for the reload workload.
int PrepareReload(const Args& args);
/// Full and delta /admin/reload switches beside a reader connection.
int ReloadWorkload(const Args& args);

}  // namespace bench

#endif  // CPDBENCH_WORKLOADS_H_
