// Umbrella header: the public API of the MLNClean library.
//
// MLNClean is a hybrid data-cleaning framework on top of Markov logic
// networks (Gao et al.): integrity constraints (FDs, CFDs, DCs) are
// softened into weighted MLN rules, grounded over the dirty data, indexed
// in a two-layer structure, and cleaned in two stages (per-rule data
// versions via AGP + RSC, then cross-rule fusion via FSCR).
//
// Quick start — for multi-batch workloads, compile a model once and put a
// CleanServer in front of it; batches are submitted asynchronously, run
// concurrently on one shared executor, and are harvested through
// future-style tickets:
//
//   #include "mlnclean/mlnclean.h"
//   using namespace mlnclean;
//
//   RuleSet rules = *ParseRules(schema,
//                               "FD: City -> State\n"
//                               "CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400\n");
//   CleanModel model = *CleaningEngine().Compile(schema, rules);
//   CleanServer server = *CleanServer::Create(model);
//
//   std::vector<CleanTicket> tickets;
//   for (const Dataset& batch : batches) {
//     auto ticket = server.Submit(batch);       // non-blocking, FIFO
//     if (!ticket.ok()) { /* kUnavailable: queue full, shed or retry */ }
//     tickets.push_back(*ticket);
//   }
//   for (CleanTicket& t : tickets) {
//     CleanResult result = *t.Take();           // result.deduped is clean
//   }
//
// Tickets support a blocking Take(), cooperative Cancel(), and per-job
// deadlines (SessionOptions::deadline, enforced between blocks/shards —
// an expired job reports kDeadlineExceeded and its input is untouched);
// server.Stats() exposes queue depth and cumulative per-stage seconds.
// Serving K sessions concurrently is bit-identical to K sequential runs
// (see cleaning/server.h). For a single one-off batch, skip the server:
//
//   CleanResult result = *CleaningEngine(options).Clean(dirty, rules);
//
// Sessions remain the streaming/staged core under both paths: Warm /
// reuse_model_weights amortize weight learning across micro-batches
// (the store keeps the all-history Eq. 6 average), staged sessions add
// per-stage progress callbacks (a begin and an end event per stage) plus
// cancellation:
//
//   CleanSession session = model.NewSession(batch, options);
//   session.RunUntil(Stage::kLearn);   // inspect, then
//   session.Resume();                  // finish; or cancel via CancelToken
//
// One growing table instead of independent batches? An incremental
// session owns the accumulation and re-grounds only appended rows; each
// Resume is bit-identical to a cold run over everything so far:
//
//   CleanSession stream = model.NewIncrementalSession(options);
//   for (const Dataset& batch : ticks) {
//     MLN_RETURN_NOT_OK(stream.AppendRows(batch)); // suffix-only re-ground
//     MLN_RETURN_NOT_OK(stream.Resume());          // clean the accumulation
//   }                                  // stream.cleaned() covers all rows
//
// model.Save(out, stream.base_index(), stream.data().num_rows()) writes
// the resume point into the snapshot (v5), and LoadWithIndex +
// ResumeIncrementalSession continue the stream in another process; a
// CleanServer routes stream submissions through a strict-FIFO lane via
// SessionOptions::incremental. Contract and trade-offs: docs/streaming.md.
//
// Models outlive their process: Save writes a versioned binary snapshot
// (schema, rules, options, and the warmed weight store with stable γ ids)
// and Load rebuilds a model that serves bit-identically — compile and
// warm once on a builder box, fan out to N serving workers:
//
//   std::ofstream out("model.bin", std::ios::binary);
//   MLN_RETURN_NOT_OK(model.Save(out));
//   // ... in the serving process:
//   std::ifstream in("model.bin", std::ios::binary);
//   MLN_ASSIGN_OR_RETURN(CleanModel served, CleaningEngine().Load(in));
//   CleanServer server = *CleanServer::Create(served, {&my_executor});
//
// Out of room on one server? A CleanFleet serves the same logical table
// from N shards: a deterministic ShardRouter (centroids fixed at build,
// persisted via Encode/Decode) splits each batch, every shard runs on its
// own CleanServer to Stage::kLearn, the Eq. 6 cross-shard weight merge
// runs at the barrier, and the ticket reassembles the shards in order —
// a 1-shard fleet is bit-identical to a plain server (docs/fleet.md):
//
//   ShardRouter router = *ShardRouter::Build(reference, {.num_shards = 3});
//   CleanFleet fleet = *CleanFleet::Create(model, router, {&my_executor});
//   FleetTicket ticket = *fleet.Submit(batch);
//   CleanResult result = *ticket.Take();
//
// The same flow is scriptable via the tools/mlnclean_model CLI
// (save / inspect / serve, with `serve --jobs N` driving batches through
// a CleanServer and `serve --shards N` through a CleanFleet); format and
// version policy live in cleaning/model_io.h
// and docs/snapshot_format.md. Malformed snapshots are rejected with
// Status kInvalid, torn/bit-rotted ones with kCorruption (per-section
// checksums) — never undefined behaviour; CleanModel::SaveToFile writes
// them crash-safely (temp file + fsync + atomic rename). The serving
// architecture — executor model, admission, deadlines — is documented in
// docs/serving.md, the robustness contract (error taxonomy, retries,
// strict CSV errors, failpoints) in docs/robustness.md.
//
// No hand-written rules? Mine them. DiscoverRules proposes approximate
// FDs and constant CFDs straight from the dirty table (TANE-style
// lattice over the dictionary-encoded columns), measures similarity
// thresholds as matching dependencies, trial-warms the candidates
// through a compiled model, and keeps the rules whose γ groups
// concentrate learned weight — survivors come back as a ready-to-compile
// RuleSet whose canonical DSL round-trips through ParseRules:
//
//   DiscoveryResult mined = *DiscoverRules(dirty);
//   CleanModel model = *CleaningEngine().Compile(dirty.schema(), mined.rules);
//   for (const MinedRuleInfo& r : mined.mined)   // measures per candidate
//     std::printf("%s sup=%.2f conf=%.2f mln=%.2f\n", r.text.c_str(),
//                 r.support, r.confidence, r.mln_score);
//
// Knobs, the algorithm, and threshold guidance live in DiscoveryOptions
// and docs/discovery.md; `mlnclean_model discover` is the CLI face.
//
// The MlnCleanPipeline facade deprecated in the engine release has been
// removed; CleaningEngine::Clean is the one-shot equivalent.
// Implementation utilities (executors, timers, string/random
// helpers) live in "mlnclean/internal.h".

#ifndef MLNCLEAN_MLNCLEAN_H_
#define MLNCLEAN_MLNCLEAN_H_

#include "baseline/holoclean.h"
#include "cleaning/agp.h"
#include "cleaning/dedup.h"
#include "cleaning/engine.h"
#include "cleaning/fscr.h"
#include "cleaning/model_io.h"
#include "cleaning/options.h"
#include "cleaning/report.h"
#include "cleaning/rsc.h"
#include "cleaning/server.h"
#include "common/cancellation.h"
#include "common/csv.h"
#include "common/distance.h"
#include "common/failpoint.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "datagen/car.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "datagen/tpch.h"
#include "datagen/workload.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "discovery/discovery.h"
#include "distributed/distributed_pipeline.h"
#include "distributed/partitioner.h"
#include "errorgen/injector.h"
#include "fleet/fleet.h"
#include "fleet/shard_router.h"
#include "eval/component_metrics.h"
#include "eval/metrics.h"
#include "index/mln_index.h"
#include "index/piece.h"
#include "index/weight_merge.h"
#include "mln/ground_rule.h"
#include "mln/weight_learner.h"
#include "rules/constraint.h"
#include "rules/rule_parser.h"
#include "rules/violation.h"

#endif  // MLNCLEAN_MLNCLEAN_H_
