// Plan/execute split of every solver (inspector/executor at the API level).
//
// The paper's defining restriction — index maps f, g, h are data-independent
// — means the entire *schedule* of a solve (pred forest, routing,
// pointer-jumping rounds, block partition, CAP exponents) is a pure function
// of the maps.  compile_plan() does all of that work once, in one serial
// pass: it validates the system once, builds the pred forest once, and
// routes from counts taken on that forest.  execute_plan() then replays the
// schedule against any number of initial-value arrays with pure ⊙
// applications and ZERO index-map inspection.  One plan amortizes
// across repeated solves (the common production shape: same loop, new data
// every tick) and across batches (execute_many).
//
//   Plan plan = compile_plan(sys, options);      // structure work, once
//   auto out  = execute_plan(plan, op, values);  // value work, many times
//
// Every parallel route runs through a plan.  The ordinary executors take
// their operands on the fly (detail::run_ordinary): execute_plan from the
// initial array, the Möbius route (linear_ir.hpp) from its coefficient
// maps.  A scan plan folds its segments straight into the result; jumping
// and blocked plans replay their schedule over a per-iteration trace array
// (replay_traces).  The Solver facade in solver.hpp adds a
// content-addressed PlanCache so repeated compiles of one system reuse its
// schedule.
//
// Schedules store indices as uint32 (plans refuse systems with 2^32 or more
// cells/iterations): the jumping schedule is O(n log n) entries in the worst
// case, and halving its footprint is what keeps plan reuse attractive at the
// million-equation scale the benches run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/batch_view.hpp"
#include "core/engine_types.hpp"
#include "core/ir_problem.hpp"
#include "core/plan_table.hpp"
#include "core/serialize.hpp"
#include "obs/telemetry.hpp"
#include "parallel/parallel_for.hpp"
#include "support/bigint.hpp"
#include "support/contract.hpp"

namespace ir::core {

/// Sentinel for "no index" in the uint32-encoded schedule arrays.
inline constexpr std::uint32_t kNoIndex32 = 0xFFFFFFFFu;

/// The engine a plan was compiled for.  kScan is the chain fast route:
/// ordinary-shaped systems whose pred forest is pure f(i) = i-1 chains are
/// detected at compile time and replayed as an O(n) sequential segmented
/// scan (src/scan/) instead of O(n log n) pointer jumping.
///
/// The values are the engine ids of the .irplan header (core/plan_io.hpp)
/// and must never be renumbered; v4 files store only kGeneralCap.  Id 3 is
/// retired (its jump schedule is replayed by kJumping) and never reused.
enum class PlanEngine : std::uint32_t {
  kElementwise = 0,
  kJumping = 1,
  kBlocked = 2,
  kGeneralCap = 4,
  kScan = 5,
};

[[nodiscard]] std::string to_string(PlanEngine engine);

/// Engine selection knob for compile_plan: kAuto routes by shape
/// (elementwise / blocked-vs-jumping / GIR) with one refinement —
/// chain-structured ordinary systems take the kScan fast route.
/// The rest force one engine (the ordinary engines require h = g with
/// injective g; kScan additionally requires the chain structure).
///
/// The values are mixed into every plan cache key and recorded in .irplan
/// headers (core/plan_io.hpp), so they must never be renumbered.
enum class EngineChoice : std::uint32_t {
  kAuto = 0,
  kElementwise = 1,
  kJumping = 2,
  kBlocked = 3,
  kGeneralCap = 4,
  kScan = 5,
};

/// The one engine-name table of every user-facing surface (irtool's
/// --engine, the service's engine= attribute): auto, elementwise, jumping,
/// blocked, scan, gir.  Nullopt for any other spelling.
[[nodiscard]] std::optional<EngineChoice> engine_choice_from_name(std::string_view name);

/// Structure-side options: everything here is resolved at compile time and
/// baked into the plan (the pool pointer itself is only a sizing hint — it
/// never outlives the call).
struct PlanOptions {
  EngineChoice engine = EngineChoice::kAuto;

  /// Sizing hint for routing and the blocked partition, and the worker pool
  /// for the CAP rounds of a general-IR compile.  Not stored in the plan.
  parallel::ThreadPool* pool = nullptr;

  /// Cross-block dependence fraction below which kAuto prefers the blocked
  /// solver over pointer jumping, measured at the routing block count (pool
  /// size, else 4).
  double blocked_threshold = 0.25;

  /// Blocked partition size; 0 = one block per pool thread (or 1).
  std::size_t blocks = 0;

  /// General-IR route: skip equations nobody reads (the paper's "version
  /// which avoids spawning unnecessary processes"; false runs its plain
  /// algorithm over every equation).
  bool prune_dead = true;

  /// General-IR route: CAP edge coalescing per round vs at the end.
  bool coalesce_each_round = true;

  /// General-IR route: sequential reference DP instead of the CAP closure.
  bool reference_counts = false;
};

/// Executor-variant selection for the batch entry points.  All variants
/// compute bit-identical results; they differ only in memory layout and
/// instruction mix:
///   * kScalar — per-lane replay: each value-set runs through execute_plan
///     on its own (the legacy shape).
///   * kWide   — the SoA lockstep executor (execute_wide.hpp): every
///     schedule entry is loaded once and applied across all K lanes as a
///     contiguous row, with SIMD kernels for ops that register WideOps.
///   * kAuto   — the library chooses: BatchView entry points go wide,
///     row-of-rows execute_many keeps the legacy per-lane path.
enum class ExecVariant { kAuto, kScalar, kWide };

[[nodiscard]] const char* to_string(ExecVariant variant);

/// Value-side options: these choose *where* and *how* the fixed schedule
/// runs, never *what* it computes.
struct ExecOptions {
  parallel::ThreadPool* pool = nullptr;  ///< jumping/blocked/elementwise/GIR phases
  std::size_t processor_cap = 0;         ///< jumping slices per phase (0 = pool size)
  ExecVariant variant = ExecVariant::kAuto;   ///< batch executor selection
  OrdinaryIrStats* ordinary_stats = nullptr;  ///< filled for every ordinary-engine plan
  BlockedIrStats* blocked_stats = nullptr;    ///< filled for blocked plans
};

/// Precomputed pointer-jumping schedule: move k of round r is
/// val[dst[k]] = val[src[k]] ⊙ val[dst[k]], with the round's moves in
/// [round_begin[r], round_begin[r+1]).  Reads of a round all precede its
/// writes (the executor double-buffers and joins between the two phases),
/// so the recorded order is exactly the synchronous-PRAM round structure.
struct JumpSchedule {
  PlanTable<std::uint32_t> dst;
  PlanTable<std::uint32_t> src;
  PlanTable<std::size_t> round_begin = {0};  ///< size rounds()+1
  std::size_t peak_active = 0;                 ///< widest round
  std::size_t seed_ops = 0;                    ///< root seeds (one ⊙ each)

  [[nodiscard]] std::size_t rounds() const noexcept { return round_begin.size() - 1; }
  [[nodiscard]] std::size_t moves() const noexcept { return dst.size(); }

  /// Half-open [begin, end) slice of dst/src holding round r's moves.
  [[nodiscard]] std::pair<std::size_t, std::size_t> round_span(std::size_t r) const {
    return {round_begin[r], round_begin[r + 1]};
  }
};

/// Precomputed two-level blocked schedule.  Phase 1 sweeps each block
/// sequentially: an equation folds its in-block predecessor (local_pred) or
/// its root seed; phase 2 applies the cross-block fix-ups block by block,
/// ascending, each a single ⊙.
struct BlockedSchedule {
  PlanTable<parallel::Block> blocks;
  PlanTable<std::uint32_t> local_pred;  ///< in-block predecessor or kNoIndex32
  PlanTable<std::uint32_t> fix_dst;     ///< partial equations, block-major
  PlanTable<std::uint32_t> fix_src;     ///< their (complete) external targets
  PlanTable<std::size_t> fix_begin;     ///< per-block slice of fix_*, size blocks+1
  std::size_t phase1_ops = 0;             ///< ⊙ count of phase 1 (incl. root seeds)
  std::size_t resolve_rounds = 0;         ///< blocks with a non-empty fix-up step

  [[nodiscard]] std::size_t partials() const noexcept { return fix_dst.size(); }

  /// Half-open [begin, end) slice of fix_dst/fix_src for block b's fix-ups.
  [[nodiscard]] std::pair<std::size_t, std::size_t> fix_span(std::size_t b) const {
    return {fix_begin[b], fix_begin[b + 1]};
  }
};

/// Chain fast route: the pred forest is pure f(i) = i-1 chains, so the
/// traces fold left-to-right as a segmented scan — O(n) ⊙ total, no rounds,
/// bit-identical to the sequential reference for any op.
struct ScanSchedule {
  PlanTable<std::uint8_t> head;  ///< 1 = segment head (chain root), size n
  std::size_t segments = 0;        ///< independent chains
  std::size_t longest = 0;         ///< longest chain (sequential depth)
};

/// No-recurrence route: written cell k takes one ⊙ of two initial values.
struct ElementwiseSchedule {
  PlanTable<std::uint32_t> cell;  ///< written cell (its final writer's g)
  PlanTable<std::uint32_t> f;     ///< final writer's two read cells
  PlanTable<std::uint32_t> h;
};

/// General-IR route: written cell k is the ⊙-fold of powered initial values
/// term_cell[t]^term_exp[t] over t in [term_begin[k], term_begin[k+1]).
/// This is the CAP result with graph node ids already resolved to cells.
struct GirSchedule {
  PlanTable<std::uint32_t> cell;
  PlanTable<std::size_t> term_begin = {0};
  PlanTable<std::uint32_t> term_cell;
  /// CAP exponents are arbitrary-precision, so they are the one table
  /// plan_io cannot borrow from a mapping — loads materialize them from the
  /// file's limb pool (see docs/plan_store.md).
  std::vector<support::BigUint> term_exp;
  std::size_t cap_rounds = 0;      ///< CAP closure rounds (0 for reference DP)
  std::size_t cap_peak_edges = 0;  ///< CAP peak live edges
  std::size_t live_equations = 0;  ///< equations CAP processed after pruning

  /// Half-open [begin, end) slice of term_cell/term_exp for written entry e.
  [[nodiscard]] std::pair<std::size_t, std::size_t> term_span(std::size_t e) const {
    return {term_begin[e], term_begin[e + 1]};
  }
};

/// A compiled solve schedule.  Owns everything execute() needs, so callers
/// never re-touch f, g, h.  It carries no analysis report: analyze()
/// (core/analyze.hpp) is a separate explain step for irtool analyze and
/// lint.
struct Plan {
  PlanEngine engine = PlanEngine::kJumping;
  std::uint64_t fingerprint = 0;  ///< content fingerprint of the source system
  std::size_t cells = 0;
  std::size_t iterations = 0;

  /// Per-iteration write cell (copy of g); scatter target for the ordinary
  /// engines and the self-operand seed cell.  Empty for elementwise/GIR.
  PlanTable<std::uint32_t> write_cell;

  /// Per-iteration root seed: f(i) for chain roots, kNoIndex32 otherwise.
  PlanTable<std::uint32_t> root_cell;

  /// True when the pred forest is pure f(i) = i-1 chains — the structure
  /// the kScan fast route exploits.  Set for every ordinary-engine compile
  /// (so a forced kJumping plan on a chain still reports it); surfaced by
  /// describe() and `irtool lint --json`.
  bool chain = false;

  JumpSchedule jump;                ///< kJumping
  BlockedSchedule blocked;          ///< kBlocked
  ScanSchedule scan;                ///< kScan
  ElementwiseSchedule elementwise;  ///< kElementwise
  GirSchedule gir;                  ///< kGeneralCap

  /// Keeps borrowed storage alive: a plan loaded zero-copy from a plan file
  /// (core/plan_io.hpp) points its schedule tables into the mapped file, and
  /// this handle owns that mapping.  Null for compiled plans, whose tables
  /// own their storage.
  std::shared_ptr<const void> backing;

  /// One-line human summary of the compiled schedule, e.g.
  /// "jumping: n=12 m=13, 4 rounds, 31 moves, peak 12" — what `irtool lint`
  /// prints next to each verdict.
  [[nodiscard]] std::string describe() const;
};

/// Compile a plan for `sys` in one serial pass: validate once, build the
/// pred forest once (the ordinary overload gathers it from g's writer array,
/// without a GIR copy), route, and build the chosen engine's full schedule.
/// kAuto reads two counts off the forest:
///   * no dependence (no read of an earlier write) -> elementwise;
///   * h = g with no repeated write (ordinary) -> scan when the forest is
///     pure i-1 chains, else blocked when fewer than blocked_threshold of the
///     iterations have a pred in an earlier block of the routing partition
///     (pool size blocks, else 4), else jumping;
///   * anything else -> gir (CAP).
/// Throws ContractViolation, before any schedule table is built, if a
/// forced engine does not fit the system's shape.
[[nodiscard]] Plan compile_plan(const GeneralIrSystem& sys, const PlanOptions& options = {});
[[nodiscard]] Plan compile_plan(const OrdinaryIrSystem& sys, const PlanOptions& options = {});

/// Cache key for (system content, requested options): the content hash
/// mixed with plan_key_words(options), so building a key never resolves a
/// route.  Option sets that compile different schedules never share a key;
/// the converse costs memory only (kAuto and the forced engine it resolves
/// to are two entries).  Pool identity never enters the key — only its
/// resolved size hints do.
[[nodiscard]] std::uint64_t plan_cache_key(const GeneralIrSystem& sys,
                                           const PlanOptions& options);
[[nodiscard]] std::uint64_t plan_cache_key(const OrdinaryIrSystem& sys,
                                           const PlanOptions& options);

/// Collision double-check carried alongside every cache key.  plan_cache_key
/// is a bare 64-bit hash, so two distinct (system, options) pairs can —
/// however improbably — share a key; serving whichever plan got there first
/// would be silently wrong.  The check is a second hash computed by an
/// independent mixing function over the same words and option knobs;
/// PlanCache and PlanStore reject (and count, as plan_cache.collisions) any
/// key whose stored check disagrees.
struct PlanKeyCheck {
  /// Reserved, always 0.  Before .irplan v4 it held the system text's
  /// length; a word stream's length is a function of the equation count,
  /// which both hashes already mix in, so it would add nothing.  It keeps
  /// its header slot until the next layout change.
  std::uint64_t bytes = 0;
  std::uint64_t hash2 = 0;  ///< independent hash of the same identity
  friend bool operator==(const PlanKeyCheck&, const PlanKeyCheck&) = default;
};

[[nodiscard]] PlanKeyCheck plan_key_check(const GeneralIrSystem& sys,
                                          const PlanOptions& options);
[[nodiscard]] PlanKeyCheck plan_key_check(const OrdinaryIrSystem& sys,
                                          const PlanOptions& options);

/// Maximum option words any requested engine mixes into its key (kAuto:
/// block hint, pool-size routing hint, threshold bits, GIR flags).
inline constexpr std::size_t kMaxPlanKeyWords = 4;

/// The (requested engine, option-word) vector both key hashes mix after the
/// system's content identity: the requested EngineChoice plus exactly the
/// knobs that engine's compile reads, so a forced engine ignores the rest
/// and kAuto keys on all of them.
///   * elementwise, jumping, scan: no words;
///   * blocked: the resolved block count;
///   * gir: the three GIR flags as one word;
///   * auto: all four (block count, routing hint, threshold bits, flags).
/// Exposed so the plan-file format can record it and a loader can re-derive
/// the store key and check from the *embedded* system: a header whose
/// recorded identity does not derive from its own payload is spliced or
/// tampered and is rejected (plan_io.cpp).
struct PlanKeyWords {
  std::uint64_t engine = 0;  ///< the requested EngineChoice
  std::uint64_t words[kMaxPlanKeyWords] = {0, 0, 0, 0};
  std::uint64_t count = 0;
  friend bool operator==(const PlanKeyWords&, const PlanKeyWords&) = default;
};

[[nodiscard]] PlanKeyWords plan_key_words(const PlanOptions& options);

/// The two key hashes from already-computed ingredients.  plan_cache_key /
/// plan_key_check are thin wrappers over these; the plan-file loader calls
/// them directly with the embedded system's hashes and the recorded words.
[[nodiscard]] std::uint64_t plan_cache_key_for(std::uint64_t fingerprint,
                                               const PlanKeyWords& words);
[[nodiscard]] PlanKeyCheck plan_key_check_for(const ContentIdentity& identity,
                                              const PlanKeyWords& words);

/// Full cache identity of (system, options) — key, collision double-check,
/// and the option words both were derived from — computed with ONE pass over
/// the index words.  The Solver's hot path uses this instead of
/// separate plan_cache_key + plan_key_check calls, which would stream the
/// system twice.
struct PlanKey {
  std::uint64_t key = 0;
  PlanKeyCheck check;
  PlanKeyWords words;
  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

[[nodiscard]] PlanKey plan_key(const GeneralIrSystem& sys, const PlanOptions& options);
[[nodiscard]] PlanKey plan_key(const OrdinaryIrSystem& sys, const PlanOptions& options);

namespace detail {

/// Fill exec's stats sinks for an ordinary-engine plan.  Every figure is a
/// property of the schedule, so the scalar and wide executors report the
/// same numbers; op_applications counts the root seeds plus the replayed ⊙s
/// (seed_ops + moves for jumping).  A blocked plan fills
/// blocked_stats and also sums itself up in ordinary_stats (rounds = its
/// fix-up steps, peak_active = its block count), so a caller holding only
/// OrdinaryIrStats sees every ordinary engine.
void record_exec_stats(const Plan& plan, const ExecOptions& exec);

/// Round scratch of `width` values.  Values without a default constructor
/// clone an existing trace instead of resizing.
template <typename Value>
void size_scratch(std::vector<Value>& scratch, std::size_t width,
                  const std::vector<Value>& traces) {
  if constexpr (std::is_default_constructible_v<Value>) {
    scratch.resize(width);
  } else {
    scratch.assign(width, traces.front());
  }
}

/// Run body(slice) over [0, n) split into at most `cap` contiguous slices
/// (pool size when 0): one pool task per slice, joined before returning, or
/// one plain loop on the caller without a pool.  Each body is a plain loop
/// over its slice, so the per-element ⊙ is inlined rather than called
/// through a std::function.
template <typename Body>
void run_slices(parallel::ThreadPool* pool, std::size_t n, std::size_t cap, const Body& body) {
  if (pool == nullptr) {
    if (n != 0) body(parallel::Block{0, n, 0});
    return;
  }
  parallel::parallel_for_blocks(*pool, n, cap != 0 ? cap : pool->size(), body);
}

/// The one executor of a JumpSchedule: ⌈log n⌉ synchronous rounds, each a
/// read phase into a side buffer and then a write phase, both forked over at
/// most processor_cap slices (pool size when 0) — the paper's T(n, P) =
/// (n/P)·log n schedule.  The join after each phase is the round barrier.
template <algebra::BinaryOperation Op>
void replay_jumping(const Op& op, const Plan& plan, std::vector<typename Op::Value>& val,
                    const ExecOptions& exec) {
  using Value = typename Op::Value;
  IR_SPAN("ordinary.solve");
  const JumpSchedule& js = plan.jump;

  std::vector<Value> new_val;
  for (std::size_t r = 0; r < js.rounds(); ++r) {
    IR_SPAN("ordinary.round");
    const auto [begin, round_end] = js.round_span(r);
    const std::size_t width = round_end - begin;
    IR_HISTOGRAM("ordinary.active_width", width);
    const std::uint32_t* dst = js.dst.data() + begin;
    const std::uint32_t* src = js.src.data() + begin;
    // Read phase into the side buffer, then write phase: the synchronous
    // PRAM step, with the active set a precompiled slice of the schedule.
    size_scratch(new_val, width, val);
    run_slices(exec.pool, width, exec.processor_cap, [&](const parallel::Block& slice) {
      for (std::size_t k = slice.begin; k < slice.end; ++k) {
        new_val[k] = op.combine(val[src[k]], val[dst[k]]);
      }
    });
    run_slices(exec.pool, width, exec.processor_cap, [&](const parallel::Block& slice) {
      for (std::size_t k = slice.begin; k < slice.end; ++k) {
        val[dst[k]] = std::move(new_val[k]);
      }
    });
  }

  IR_COUNTER_ADD("ordinary.solves", 1);
  IR_COUNTER_ADD("ordinary.rounds", js.rounds());
  IR_COUNTER_ADD("ordinary.op_applications", js.seed_ops + js.moves());
  IR_GAUGE_MAX("ordinary.peak_active", js.peak_active);
}

template <algebra::BinaryOperation Op>
void replay_blocked(const Op& op, const Plan& plan, std::vector<typename Op::Value>& val,
                    const ExecOptions& exec) {
  IR_SPAN("blocked.solve");
  const BlockedSchedule& bs = plan.blocked;

  // Phase 1: block-local sequential sweeps over the precompiled local preds
  // (chain roots arrive seeded, so they have nothing left to fold).
  const std::uint32_t* local_pred = bs.local_pred.data();
  auto sweep = [&](std::size_t b) {
    const auto& block = bs.blocks[b];
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const std::uint32_t pred = local_pred[i];
      if (pred != kNoIndex32) val[i] = op.combine(val[pred], val[i]);
    }
  };
  {
    IR_SPAN("blocked.phase1");
    if (exec.pool != nullptr) {
      parallel::parallel_for(*exec.pool, bs.blocks.size(), sweep);
    } else {
      for (std::size_t b = 0; b < bs.blocks.size(); ++b) sweep(b);
    }
  }

  // Phase 2: ascending blocks; each fix-up target is complete, one ⊙ each.
  IR_SPAN("blocked.phase2");
  for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
    const auto [begin, fix_end] = bs.fix_span(b);
    if (fix_end == begin) continue;
    const std::uint32_t* dst = bs.fix_dst.data() + begin;
    const std::uint32_t* src = bs.fix_src.data() + begin;
    run_slices(exec.pool, fix_end - begin, 0, [&](const parallel::Block& slice) {
      for (std::size_t k = slice.begin; k < slice.end; ++k) {
        val[dst[k]] = op.combine(val[src[k]], val[dst[k]]);
      }
    });
  }

  IR_COUNTER_ADD("blocked.solves", 1);
  IR_COUNTER_ADD("blocked.blocks", bs.blocks.size());
  IR_COUNTER_ADD("blocked.partials", bs.partials());
  IR_COUNTER_ADD("blocked.resolve_rounds", bs.resolve_rounds);
  IR_COUNTER_ADD("blocked.op_applications", bs.phase1_ops + bs.partials());
}

/// The kScan executor: each chain folds left to right, exactly like the
/// sequential loop, so the result is bit-identical for ANY op — a
/// Kogge-Stone segmented scan would reassociate.  It is also O(n) work
/// versus jumping's O(n log n) moves, and it ignores the pool: the fold is
/// the critical path and streams at memory bandwidth (EXPERIMENTS.md
/// EX-L23), so slicing it gains nothing.  first(h) is segment head h's full
/// first trace (its root already folded in), next(i) iteration i's self
/// operand, and store(i, W(i)) takes each finished trace.  The fold may run
/// in place: a root reads a cell no earlier iteration stores, before any
/// later one does.
template <algebra::BinaryOperation Op, typename First, typename Next, typename Store>
void fold_segments(const Op& op, const Plan& plan, const First& first, const Next& next,
                   const Store& store) {
  using Value = typename Op::Value;
  IR_SPAN("scan.solve");
  const std::size_t n = plan.iterations;
  const std::uint8_t* head = plan.scan.head.data();
  if (n != 0) {
    Value acc = first(0);
    store(0, Value(acc));
    for (std::size_t i = 1; i < n; ++i) {
      if (head[i] != 0) {
        acc = first(i);
      } else {
        acc = op.combine(acc, next(i));
      }
      store(i, Value(acc));
    }
  }

  IR_COUNTER_ADD("scan.solves", 1);
  IR_COUNTER_ADD("scan.op_applications", n);
  IR_GAUGE_MAX("scan.longest_segment", plan.scan.longest);
}

template <algebra::BinaryOperation Op>
void replay_scan(const Op& op, const Plan& plan, std::vector<typename Op::Value>& val) {
  using Value = typename Op::Value;
  Value* v = val.data();
  auto at = [v](std::size_t i) -> const Value& { return v[i]; };
  fold_segments(op, plan, at, at, [v](std::size_t i, Value&& w) { v[i] = std::move(w); });
}

}  // namespace detail

/// Replay an ordinary-engine plan (jumping, blocked or scan) over a
/// per-iteration trace array the caller seeded.  On entry traces[i] holds
/// iteration i's self operand, with a chain root's untouched cell already
/// folded in front of it:
///     traces[i] = R(root_cell[i]) ⊙ S(i)   if root_cell[i] != kNoIndex32
///     traces[i] = S(i)                     otherwise
/// On return traces[i] is W(i), the full trace value of iteration i.
/// detail::run_ordinary seeds it for jumping and blocked plans; a scan plan
/// replays through the same per-segment fold (fold_segments) that
/// run_ordinary runs without a trace array.
template <algebra::BinaryOperation Op>
void replay_traces(const Plan& plan, const Op& op, std::vector<typename Op::Value>& traces,
                   const ExecOptions& exec = {}) {
  IR_REQUIRE(traces.size() == plan.iterations, "need one seeded trace per iteration");
  switch (plan.engine) {
    case PlanEngine::kJumping:
      detail::replay_jumping(op, plan, traces, exec);
      break;
    case PlanEngine::kBlocked:
      detail::replay_blocked(op, plan, traces, exec);
      break;
    case PlanEngine::kScan:
      detail::replay_scan(op, plan, traces);
      break;
    default:
      IR_REQUIRE(false, "replay_traces needs an ordinary-engine plan");
  }
  detail::record_exec_stats(plan, exec);
}

namespace detail {

/// Run an ordinary-engine plan over operands read on the fly: root(cell) is
/// the front operand a chain root folds in, self(i) iteration i's self
/// operand, and store(i, W(i)) takes each finished trace.  kScan plans fold
/// their segments straight from the operands (fold_segments, no trace
/// array); jumping and blocked plans seed a trace array in one pass, replay
/// it (replay_traces) and hand it back in a second.  The seed and the store
/// pass are plain loops over hoisted table pointers, sliced on exec.pool
/// (serial without one): the seed reads only operands, the replay's join
/// separates it from the stores, and every store goes to its own iteration.
/// Values without a default constructor have no array to seed in slices,
/// so they are seeded by one serial push_back pass.
template <algebra::BinaryOperation Op, typename Root, typename Self, typename Store>
void run_ordinary(const Op& op, const Plan& plan, const Root& root, const Self& self,
                  const Store& store, const ExecOptions& exec) {
  using Value = typename Op::Value;
  const std::uint32_t* root_cell = plan.root_cell.data();
  auto seed = [&](std::size_t i) -> Value {
    const std::uint32_t cell = root_cell[i];
    return cell != kNoIndex32 ? op.combine(root(cell), self(i)) : Value(self(i));
  };
  if (plan.engine == PlanEngine::kScan) {
    fold_segments(op, plan, seed, self, store);
    record_exec_stats(plan, exec);
    return;
  }
  const std::size_t n = plan.iterations;
  std::vector<Value> traces;
  if constexpr (std::is_default_constructible_v<Value>) {
    traces.resize(n);
    run_slices(exec.pool, n, exec.processor_cap, [&](const parallel::Block& slice) {
      for (std::size_t i = slice.begin; i < slice.end; ++i) traces[i] = seed(i);
    });
  } else {
    traces.reserve(n);
    for (std::size_t i = 0; i < n; ++i) traces.push_back(seed(i));
  }
  replay_traces(plan, op, traces, exec);
  run_slices(exec.pool, n, exec.processor_cap, [&](const parallel::Block& slice) {
    for (std::size_t i = slice.begin; i < slice.end; ++i) store(i, std::move(traces[i]));
  });
}

}  // namespace detail

/// Execute a compiled plan against one initial-value array.  Pure value
/// work: no index map of the source system is consulted (they may even have
/// been destroyed since compile).  The GIR route additionally requires a
/// PowerOperation, checked at compile time only when such a plan can reach
/// this instantiation.
template <algebra::BinaryOperation Op>
std::vector<typename Op::Value> execute_plan(const Plan& plan, const Op& op,
                                             std::vector<typename Op::Value> initial,
                                             const ExecOptions& exec = {}) {
  using Value = typename Op::Value;
  IR_REQUIRE(initial.size() == plan.cells, "initial array must have `cells` entries");
  IR_COUNTER_ADD("plan.executes", 1);

  switch (plan.engine) {
    case PlanEngine::kElementwise: {
      const ElementwiseSchedule& es = plan.elementwise;
      std::vector<Value> result = initial;
      auto eval = [&](std::size_t k) {
        result[es.cell[k]] = op.combine(initial[es.f[k]], initial[es.h[k]]);
      };
      if (exec.pool != nullptr) {
        parallel::parallel_for(*exec.pool, es.cell.size(), eval);
      } else {
        for (std::size_t k = 0; k < es.cell.size(); ++k) eval(k);
      }
      return result;
    }

    case PlanEngine::kJumping:
    case PlanEngine::kBlocked:
    case PlanEngine::kScan: {
      // g is injective on these routes, so iteration i's self operand is
      // cell write_cell[i]'s initial value, and each written cell has one
      // trace to take back: the solve runs in place.
      std::vector<Value> result = std::move(initial);
      Value* values = result.data();
      const std::uint32_t* write_cell = plan.write_cell.data();
      detail::run_ordinary(
          op, plan, [values](std::uint32_t cell) -> const Value& { return values[cell]; },
          [values, write_cell](std::size_t i) -> const Value& { return values[write_cell[i]]; },
          [values, write_cell](std::size_t i, Value&& trace) {
            values[write_cell[i]] = std::move(trace);
          },
          exec);
      return result;
    }

    case PlanEngine::kGeneralCap: {
      if constexpr (algebra::PowerOperation<Op>) {
        const GirSchedule& gs = plan.gir;
        std::vector<Value> result = std::move(initial);
        std::vector<Value> finals(gs.cell.size());
        {
          // Freeze the initial values: a leaf cell may also be written, so
          // evaluation must not observe half-updated neighbours.
          const std::vector<Value> snapshot = result;
          auto eval_into = [&](std::size_t e) {
            std::vector<Value> terms;
            terms.reserve(gs.term_begin[e + 1] - gs.term_begin[e]);
            for (std::size_t t = gs.term_begin[e]; t < gs.term_begin[e + 1]; ++t) {
              const Value& base = snapshot[gs.term_cell[t]];
              terms.push_back(gs.term_exp[t] == support::BigUint{1}
                                  ? base
                                  : op.pow(base, gs.term_exp[t]));
            }
            while (terms.size() > 1) {
              std::size_t half = terms.size() / 2;
              for (std::size_t k = 0; k < half; ++k) {
                terms[k] = op.combine(terms[2 * k], terms[2 * k + 1]);
              }
              if (terms.size() % 2 == 1) {
                terms[half] = terms.back();
                ++half;
              }
              terms.resize(half);
            }
            finals[e] = terms.front();
          };
          if (exec.pool != nullptr) {
            parallel::parallel_for(*exec.pool, gs.cell.size(), eval_into);
          } else {
            for (std::size_t e = 0; e < gs.cell.size(); ++e) eval_into(e);
          }
        }
        for (std::size_t e = 0; e < gs.cell.size(); ++e) {
          result[gs.cell[e]] = std::move(finals[e]);
        }
        return result;
      } else {
        IR_REQUIRE(false,
                   "executing a general-IR plan requires a commutative power operation");
        return initial;
      }
    }
  }
  IR_REQUIRE(false, "unknown plan engine");
  return initial;
}

/// Run a compiled plan over a whole SoA batch in lockstep: each schedule
/// entry is loaded once and applied across all K lanes as a contiguous row.
/// Bit-identical to per-lane execute_plan for every engine.  Defined in
/// execute_wide.hpp (which also registers the SIMD row kernels); include it
/// in any TU that requests the wide variant.
template <algebra::BinaryOperation Op>
BatchView<typename Op::Value> execute_wide(const Plan& plan, const Op& op,
                                           BatchView<typename Op::Value> batch,
                                           const ExecOptions& exec = {});

/// Amortize one plan across K initial-value arrays (row-of-rows shape).
/// Variant selection: kWide transposes into a BatchView and runs the wide
/// executor; kAuto/kScalar keep the legacy per-lane path — with a pool, the
/// K solves run as one parallel_for with serial inner executes.
/// Batch-first callers should prefer the BatchView overload in
/// execute_wide.hpp, which skips both transposes.
template <algebra::BinaryOperation Op>
std::vector<std::vector<typename Op::Value>> execute_many(
    const Plan& plan, const Op& op,
    std::vector<std::vector<typename Op::Value>> initials, const ExecOptions& exec = {}) {
  if (exec.variant == ExecVariant::kWide) {
    using Value = typename Op::Value;
    auto batch = BatchView<Value>::from_rows(initials, plan.cells);
    return execute_wide(plan, op, std::move(batch), exec).to_rows();
  }
  std::vector<std::vector<typename Op::Value>> results(initials.size());
  if (exec.pool == nullptr) {
    for (std::size_t k = 0; k < initials.size(); ++k) {
      results[k] = execute_plan(plan, op, std::move(initials[k]), exec);
    }
    return results;
  }
  IR_SPAN("plan.execute_many");
  ExecOptions inner = exec;
  inner.pool = nullptr;  // outer parallel_for supplies the parallelism
  inner.ordinary_stats = nullptr;
  inner.blocked_stats = nullptr;
  parallel::parallel_for(*exec.pool, initials.size(), [&](std::size_t k) {
    results[k] = execute_plan(plan, op, std::move(initials[k]), inner);
  });
  return results;
}

}  // namespace ir::core

// Completes the execute_wide declaration above (and adds the BatchView
// overload of execute_many): trailing include so every execute_many caller
// links without naming the wide header themselves.  Safe against the cycle —
// by this point the whole of plan.hpp has been seen.
#include "core/execute_wide.hpp"  // IWYU pragma: keep
