// CleaningEngine: the prepared-model serving API of MLNClean.
//
// The two-stage design factors into a build-once phase (rule validation
// and compilation, reusable planning state, an Eq. 6 weight store) and a
// per-request repair phase. `CleaningEngine::Compile` performs the former
// and returns a `CleanModel`; `CleanModel::NewSession` binds the model to
// one (micro-)batch of dirty data and runs the pipeline with staged
// execution:
//
//   CleaningEngine engine(options);
//   MLN_ASSIGN_OR_RETURN(CleanModel model, engine.Compile(schema, rules));
//   CleanSession session = model.NewSession(batch);
//   MLN_RETURN_NOT_OK(session.RunUntil(Stage::kLearn));  // inspect weights
//   MLN_RETURN_NOT_OK(session.Resume());                 // finish the plan
//   MLN_ASSIGN_OR_RETURN(CleanResult result, session.TakeResult());
//
// Sessions support per-stage progress callbacks (one begin and one end
// event per stage), a cooperative CancelToken that aborts between
// blocks/shards with Status::Cancelled, and an optional deadline enforced
// at the same boundaries (Status kDeadlineExceeded). Learned γ-weights
// persist on the model (`Warm`, `contribute_weights`), so serving K
// micro-batches against one prepared model amortizes the learn cost; with
// weight reuse off, a session is bit-identical to a cold
// `CleaningEngine::Clean` run on the same batch. For concurrent
// multi-batch serving, put a CleanServer (cleaning/server.h) in front of
// the model.

#ifndef MLNCLEAN_CLEANING_ENGINE_H_
#define MLNCLEAN_CLEANING_ENGINE_H_

#include <chrono>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "cleaning/options.h"
#include "cleaning/report.h"
#include "common/cancellation.h"
#include "common/executor.h"
#include "common/result.h"
#include "index/mln_index.h"
#include "index/weight_merge.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Output of a cleaning run.
struct CleanResult {
  /// Repaired dataset, row-aligned with the dirty input (before duplicate
  /// removal) — the dataset accuracy metrics are computed on.
  Dataset cleaned;
  /// Final dataset after duplicate elimination.
  Dataset deduped;
  /// Decision trace and stage timings.
  CleaningReport report;
};

/// The pipeline stages, in execution order. `RunUntil(stage)` runs every
/// stage up to and including `stage`; `Stage::kDedup` is the full plan.
enum class Stage : int {
  kIndex = 0,  // MLN index construction (grounding + grouping)
  kAgp = 1,    // abnormal group processing
  kLearn = 2,  // γ weight learning (or prior/stored-weight assignment)
  kRsc = 3,    // reliability-score based cleaning
  kFscr = 4,   // fusion-score based conflict resolution
  kDedup = 5,  // duplicate elimination
};

inline constexpr int kNumStages = 6;

/// Short lowercase stage name ("index", "agp", ...).
const char* StageName(Stage stage);

/// One progress event. Sessions emit exactly two per stage, on every
/// executor: units_done == 0 when the stage starts and units_done ==
/// units_total when it completes. Both fire on the thread driving the
/// session, never on a worker, so the callback needs no synchronization
/// of its own.
struct StageProgress {
  Stage stage = Stage::kIndex;
  /// Work units of the stage: rules for kIndex, blocks for kAgp/kLearn/
  /// kRsc, tuples for kFscr/kDedup.
  size_t units_done = 0;
  size_t units_total = 0;
  /// Seconds spent in the stage so far (0 at the start event).
  double seconds = 0.0;
};

using ProgressFn = std::function<void(const StageProgress&)>;

/// Per-session knobs (the cleaning knobs themselves live on the model).
struct SessionOptions {
  /// Called at the begin and at the end of every stage, on the driving
  /// thread; may call CancelToken::RequestCancel.
  ProgressFn progress;
  /// Cancels the run between blocks/shards; the session then reports
  /// Status::Cancelled and stays terminally cancelled.
  CancelToken cancel;
  /// Optional deadline, enforced at the same block/shard boundaries the
  /// cancel flag is polled at: once it passes, the session aborts with
  /// Status kDeadlineExceeded, stays terminal, and the input dataset is
  /// untouched (exactly the cancellation contract). A deadline already in
  /// the past fails the run before any stage work.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// kLearn draws γ weights from the model's Eq. 6 store (Eq. 4 priors
  /// overridden by any stored weight) instead of running the Newton
  /// learner — the amortization lever for serving micro-batches. Falls
  /// back to fresh learning while the store is empty. Off by default:
  /// a fresh-weights session is bit-identical to a cold pipeline run.
  bool reuse_model_weights = false;
  /// After kLearn, folds this session's learned weights into the model's
  /// store (support-weighted, Eq. 6) so later sessions can reuse them.
  /// Only *freshly learned* weights contribute: a session that reused the
  /// store (or ran the prior-only ablation) never writes back, so the
  /// store cannot re-average itself or absorb unlearned priors.
  bool contribute_weights = false;
  /// When false, the per-decision trace (AGP/RSC/FSCR records, duplicate
  /// pairs) is not materialized — only stage timings and the learn/FSCR
  /// counters are kept. Serving paths that never read the trace skip its
  /// allocation cost.
  bool collect_report = true;
};

class CleanSession;

/// A compiled, reusable cleaning model: validated rules, resolved
/// options, and a store of learned γ weights shared by every session.
/// Cheap to copy (a shared handle); sessions keep the state alive.
class CleanModel {
 public:
  const Schema& schema() const;
  const RuleSet& rules() const;
  const CleaningOptions& options() const;

  /// Opens a staged session over `dirty`, which must outlive the session
  /// and match the model's schema (checked on the first Run* call).
  CleanSession NewSession(const Dataset& dirty, SessionOptions opts = {}) const;

  /// Opens an empty row-incremental session: feed it micro-batches with
  /// CleanSession::AppendRows, then Resume() to clean everything
  /// accumulated so far. The session owns the accumulated dataset and
  /// maintains the stage-I MlnIndex across appends (only new rows are
  /// re-ground), so each Resume is bit-identical to — but much cheaper
  /// than — a cold session over the concatenation of every batch appended
  /// so far (docs/streaming.md).
  CleanSession NewIncrementalSession(SessionOptions opts = {}) const;

  /// Reopens an incremental session from a serialized base index (loaded
  /// via CleaningEngine::LoadWithIndex): `accumulated` must be the rows
  /// the index was built over, appended in the original order (so the
  /// dictionaries reproduce the ids the index carries) — validated with
  /// MlnIndex::Validate before anything runs; a mismatch makes the
  /// session terminally Invalid. The cross-process continuation of a
  /// long-running stream.
  CleanSession ResumeIncrementalSession(Dataset accumulated, MlnIndex base,
                                        SessionOptions opts = {}) const;

  /// One-shot convenience: NewSession + Resume + TakeResult.
  Result<CleanResult> Clean(const Dataset& dirty, SessionOptions opts = {}) const;

  /// Runs index+AGP+learning over `sample` and stores the learned weights
  /// on the model, so sessions with `reuse_model_weights` skip the
  /// learner. Equivalent to a contribute-only session run to kLearn.
  Status Warm(const Dataset& sample) const;

  /// γs with a stored (Eq. 6 merged) weight.
  size_t num_stored_weights() const;

  /// Writes a versioned binary snapshot of the model — schema, rules,
  /// resolved options, and the Eq. 6 weight store with its interners — to
  /// `out`, so a serving process can `CleaningEngine::Load` it and serve
  /// micro-batches bit-identically to this in-process model. Safe to call
  /// while sessions run (the store is read under the shared lock). Format
  /// and version policy: cleaning/model_io.h and docs/snapshot_format.md.
  Status Save(std::ostream& out) const;

  /// Save plus a serialized stage-I index: writes a snapshot whose
  /// index section carries `index` (a pre-AGP index over `indexed_rows`
  /// rows — an incremental session's base_index()), so another process
  /// can LoadWithIndex + ResumeIncrementalSession and keep appending
  /// without re-grounding history. Plain CleaningEngine::Load reads the
  /// same snapshot and simply drops the index.
  Status Save(std::ostream& out, const MlnIndex& index, size_t indexed_rows) const;

  /// Crash-safe Save: encodes the snapshot, writes it to a temp file next
  /// to `path`, fsyncs, then atomically renames over `path` (and fsyncs
  /// the parent directory). A crash or failure at any point leaves either
  /// the old file intact or the new one complete — never a torn snapshot
  /// at `path`; the temp file is unlinked on every failure path.
  Status SaveToFile(const std::string& path) const;

  /// Crash-safe SaveToFile carrying a stage-I index (see the Save
  /// overload above).
  Status SaveToFile(const std::string& path, const MlnIndex& index,
                    size_t indexed_rows) const;

  /// Model-level Eq. 6 weight adjustment across concurrent sessions (the
  /// distributed driver's global merge): every γ learned in several
  /// sessions gets the support-weighted average of its per-session
  /// weights, written back into every session's index. Each session must
  /// have completed Stage::kLearn and not yet run Stage::kRsc. Returns
  /// the number of γs in the merged global weight table.
  Result<size_t> AdjustWeightsAcross(const std::vector<CleanSession*>& sessions) const;

 private:
  friend class CleaningEngine;
  friend class CleanSession;
  struct State;
  explicit CleanModel(std::shared_ptr<State> state) : state_(std::move(state)) {}
  /// Serializes the snapshot to its wire bytes (model_io.cc); `index` may
  /// be null (empty index section).
  Result<std::string> EncodeSnapshotBytes(const MlnIndex* index,
                                          size_t indexed_rows) const;
  std::shared_ptr<State> state_;
};

/// One staged cleaning run of a model over one dataset. Move-only; the
/// dirty dataset is borrowed and never mutated (repairs are written into
/// the session-owned `cleaned()` copy), so a cancelled or failed run
/// leaves the input untouched.
class CleanSession {
 public:
  CleanSession(CleanSession&&) noexcept = default;
  CleanSession& operator=(CleanSession&&) noexcept = default;
  ~CleanSession() = default;
  CleanSession(const CleanSession&) = delete;
  CleanSession& operator=(const CleanSession&) = delete;

  /// Runs every not-yet-run stage up to and including `last`. Stages
  /// already behind the cursor are not re-run (so RunUntil(kAgp) after
  /// RunUntil(kLearn) is an OK no-op). On cancellation or failure the
  /// session becomes terminal and every later call returns that Status.
  Status RunUntil(Stage last);

  /// Runs the remaining stages to completion: RunUntil(Stage::kDedup).
  Status Resume();

  /// Incremental sessions only: appends `batch`'s rows to the session's
  /// accumulated dataset and rewinds the stage cursor to Stage::kIndex,
  /// so the next Run*/Resume recleans the whole accumulation — but the
  /// index stage only grounds the rows appended since the last run
  /// (MlnIndex::AppendRows), which is where the incremental saving lives.
  /// The batch must match the model's schema; a mismatched batch is
  /// rejected without poisoning the session. Invalid on non-incremental
  /// sessions; the terminal Status on a dead one.
  Status AppendRows(const Dataset& batch);

  /// True for sessions opened with NewIncrementalSession /
  /// ResumeIncrementalSession.
  bool incremental() const { return incremental_; }

  /// Incremental sessions: the rows accumulated across every AppendRows.
  /// (Non-incremental sessions: the borrowed dirty batch.)
  const Dataset& data() const { return *dirty_; }

  /// Incremental sessions, after the index stage has run: the maintained
  /// pre-AGP base index over the accumulated rows — what
  /// CleanModel::Save(out, base_index(), data().num_rows()) snapshots for
  /// a cross-process ResumeIncrementalSession. (The stage-II index()
  /// accessor returns the per-run working copy AGP/RSC mutate instead.)
  const MlnIndex& base_index() const { return base_index_; }

  /// The first stage a Run* call would execute next.
  Stage next_stage() const { return static_cast<Stage>(next_); }
  /// True once every stage has run.
  bool finished() const { return next_ >= kNumStages; }

  /// Decision trace accumulated so far.
  const CleaningReport& report() const { return report_; }

  /// The stage-I index; meaningful after Stage::kIndex has run.
  const MlnIndex& index() const { return index_; }
  /// Mutable index between stages (the model-level weight merge writes
  /// through this).
  MlnIndex* mutable_index() { return &index_; }

  /// Repaired dataset; meaningful after Stage::kFscr has run.
  const Dataset& cleaned() const { return cleaned_; }
  /// Deduplicated dataset; meaningful after Stage::kDedup has run.
  const Dataset& deduped() const { return deduped_; }

  /// Moves the run's output out of a finished session (Invalid if stages
  /// remain, the terminal Status if the run failed or was cancelled).
  Result<CleanResult> TakeResult();

 private:
  friend class CleanModel;
  CleanSession(std::shared_ptr<CleanModel::State> model, const Dataset* dirty,
               SessionOptions opts);

  Status RunStage(Stage stage, const ExecContext& ctx);
  /// The execution context stage drivers run under: the model's resolved
  /// executor and thread cap, this session's cancel flag and deadline.
  ExecContext MakeContext() const;
  /// Maps a stop observed at a boundary to the terminal Status: an
  /// expired deadline wins unless the user also cancelled explicitly.
  Status StopStatus(const char* when, Stage stage) const;
  void EmitProgress(Stage stage, size_t done, size_t total, double seconds);
  size_t StageUnits(Stage stage) const;

  std::shared_ptr<CleanModel::State> model_;  // shared: pins the model state
  const Dataset* dirty_;
  SessionOptions opts_;
  DistanceFn dist_;
  // Incremental sessions own their accumulated rows (dirty_ points here;
  // behind unique_ptr so the defaulted moves keep dirty_ valid) and keep
  // the pre-AGP base index alive across appends; grounded_rows_ counts
  // the rows base_index_ already covers.
  std::unique_ptr<Dataset> accumulated_;
  MlnIndex base_index_;
  size_t grounded_rows_ = 0;
  bool incremental_ = false;
  MlnIndex index_;
  CleaningReport report_;
  Dataset cleaned_;
  Dataset deduped_;
  int next_ = 0;
  Status terminal_;  // sticky failure/cancellation; OK while runnable
};

/// A snapshot decoded together with its optional index section (tag 5):
/// what CleaningEngine::LoadWithIndex returns.
struct LoadedSnapshot {
  CleanModel model;
  /// The serialized pre-AGP base index, when the snapshot carries one.
  std::optional<MlnIndex> index;
  /// Rows of the accumulated dataset the saved index covers (0 without an
  /// index) — ResumeIncrementalSession's caller rebuilds that dataset and
  /// can sanity-check the row count before handing it over.
  size_t indexed_rows = 0;
};

/// Compiles rule sets into reusable CleanModels. Construction only stores
/// the default options; all validation happens in Compile, so a misconfig
/// surfaces once per model, not once per request.
class CleaningEngine {
 public:
  explicit CleaningEngine(CleaningOptions defaults = {});

  const CleaningOptions& options() const { return defaults_; }

  /// Validates `options` and every rule (schema match, index
  /// compatibility) and returns a prepared model. `rules` is copied onto
  /// the model; the schema must equal `rules.schema()`.
  Result<CleanModel> Compile(const Schema& schema, const RuleSet& rules,
                             const CleaningOptions& options) const;
  /// Compile with the engine's default options.
  Result<CleanModel> Compile(const Schema& schema, const RuleSet& rules) const;

  /// One-shot convenience for single batches: Compile + model.Clean. This
  /// is the cold path — it validates and compiles per call, which is
  /// exactly the cost a kept CleanModel (or a CleanServer) amortizes away
  /// when more than one batch arrives.
  Result<CleanResult> Clean(const Dataset& dirty, const RuleSet& rules,
                            SessionOptions opts = {}) const;

  /// Reads a snapshot written by CleanModel::Save and returns a model
  /// equivalent to the saved one: same schema, rules, options (the
  /// snapshot's options override this engine's defaults), and the same
  /// stored γ weights bit-for-bit. Malformed input (bad magic, framing,
  /// structure) is rejected with StatusCode::kInvalid naming the
  /// offending byte position — the decoder never reads past a section's
  /// declared length; torn or bit-rotted content whose framing still
  /// parses is rejected with StatusCode::kCorruption naming the section
  /// and its byte range (the per-section checksum).
  Result<CleanModel> Load(std::istream& in) const;

  /// Load from a file path (the counterpart of CleanModel::SaveToFile).
  Result<CleanModel> LoadFromFile(const std::string& path) const;

  /// Like Load, but also decodes the snapshot's index section when one is
  /// present — the cross-process continuation path: LoadWithIndex, rebuild
  /// the accumulated dataset, then CleanModel::ResumeIncrementalSession.
  /// Snapshots without a saved index load fine (`index` is empty).
  Result<LoadedSnapshot> LoadWithIndex(std::istream& in) const;

  /// LoadWithIndex from a file path.
  Result<LoadedSnapshot> LoadWithIndexFromFile(const std::string& path) const;

 private:
  CleaningOptions defaults_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_ENGINE_H_
