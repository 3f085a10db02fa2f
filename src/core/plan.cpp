#include "core/plan.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "core/general_ir.hpp"
#include "core/serialize.hpp"
#include "graph/cap.hpp"

namespace ir::core {

std::string to_string(PlanEngine engine) {
  switch (engine) {
    case PlanEngine::kElementwise: return "elementwise";
    case PlanEngine::kJumping: return "jumping";
    case PlanEngine::kBlocked: return "blocked";
    case PlanEngine::kGeneralCap: return "gir-cap";
    case PlanEngine::kScan: return "scan";
  }
  return "?";
}

std::optional<EngineChoice> engine_choice_from_name(std::string_view name) {
  if (name == "auto") return EngineChoice::kAuto;
  if (name == "elementwise") return EngineChoice::kElementwise;
  if (name == "jumping") return EngineChoice::kJumping;
  if (name == "blocked") return EngineChoice::kBlocked;
  if (name == "scan") return EngineChoice::kScan;
  if (name == "gir") return EngineChoice::kGeneralCap;
  return std::nullopt;
}

const char* to_string(ExecVariant variant) {
  switch (variant) {
    case ExecVariant::kAuto: return "auto";
    case ExecVariant::kScalar: return "scalar";
    case ExecVariant::kWide: return "wide";
  }
  return "?";
}

std::string Plan::describe() const {
  std::string out = to_string(engine) + ": n=" + std::to_string(iterations) +
                    " m=" + std::to_string(cells);
  switch (engine) {
    case PlanEngine::kJumping:
      out += ", " + std::to_string(jump.rounds()) + " rounds, " +
             std::to_string(jump.moves()) + " moves, peak " +
             std::to_string(jump.peak_active);
      break;
    case PlanEngine::kBlocked:
      out += ", " + std::to_string(blocked.blocks.size()) + " blocks, " +
             std::to_string(blocked.partials()) + " fix-ups over " +
             std::to_string(blocked.resolve_rounds) + " resolve rounds";
      break;
    case PlanEngine::kElementwise:
      out += ", " + std::to_string(elementwise.cell.size()) + " written cells";
      break;
    case PlanEngine::kGeneralCap:
      out += ", " + std::to_string(gir.cell.size()) + " written cells, " +
             std::to_string(gir.term_cell.size()) + " leaf powers, " +
             std::to_string(gir.cap_rounds) + " CAP rounds";
      break;
    case PlanEngine::kScan:
      out += ", " + std::to_string(scan.segments) + " segments, longest " +
             std::to_string(scan.longest);
      break;
  }
  if (chain && engine != PlanEngine::kScan) out += ", chain-structured";
  return out;
}

namespace detail {

void record_exec_stats(const Plan& plan, const ExecOptions& exec) {
  OrdinaryIrStats stats;
  switch (plan.engine) {
    case PlanEngine::kJumping:
      stats = {plan.jump.rounds(), plan.jump.seed_ops + plan.jump.moves(),
               plan.jump.peak_active};
      break;
    case PlanEngine::kScan:
      stats = {plan.iterations == 0 ? 0u : 1u, plan.iterations, plan.scan.longest};
      break;
    case PlanEngine::kBlocked: {
      const BlockedSchedule& bs = plan.blocked;
      const std::size_t ops = bs.phase1_ops + bs.partials();
      if (exec.blocked_stats != nullptr) {
        *exec.blocked_stats = {bs.blocks.size(), bs.partials(), bs.resolve_rounds, ops};
      }
      stats = {bs.resolve_rounds, ops, bs.blocks.size()};
      break;
    }
    default:
      return;
  }
  if (exec.ordinary_stats != nullptr) *exec.ordinary_stats = stats;
}

}  // namespace detail

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= kFnvPrime;
  }
}

/// What one pass over a system's maps tells the compile: the pred forest
/// through f and the counts kAuto routes on.
struct Forest {
  std::vector<std::uint32_t> pred;  ///< latest earlier writer of f(i), or kNoIndex32
  std::size_t dependences = 0;      ///< reads of earlier writes, through f or h
  bool ordinary = true;             ///< h = g and no cell written twice
  bool chain = true;                ///< every pred is the previous iteration or none

  /// Record pred(i) = writer, kNone for a root.
  void link(std::size_t i, std::size_t writer) {
    if (writer == kNone) {
      pred[i] = kNoIndex32;
      return;
    }
    pred[i] = static_cast<std::uint32_t>(writer);
    ++dependences;
    chain = chain && writer + 1 == i;
  }
};

void require_plan_bounds(std::size_t cells, std::size_t iterations) {
  IR_REQUIRE(cells < kNoIndex32 && iterations < kNoIndex32,
             "plans support systems below 2^32-1 cells/iterations");
}

/// kAuto's routing: elementwise / GIR / scan / blocked-vs-jumping by shape.
EngineChoice resolve_engine(const Forest& forest, const PlanOptions& options) {
  if (options.engine != EngineChoice::kAuto) return options.engine;
  if (forest.dependences == 0) return EngineChoice::kElementwise;
  if (!forest.ordinary) return EngineChoice::kGeneralCap;
  if (forest.chain) return EngineChoice::kScan;
  // The crossing count measure_cross_block_fraction takes on an ordinary
  // system, whose dependences all run through f: pred(i) < i, so i crosses
  // exactly when pred(i) is below the start of its block (a root's
  // kNoIndex32 never is).
  const std::size_t n = forest.pred.size();
  const std::size_t blocks = options.pool != nullptr ? options.pool->size() : 4;
  std::size_t crossing = 0;
  for (const parallel::Block& block : parallel::partition_blocks(n, blocks)) {
    for (std::size_t i = block.begin; i < block.end; ++i) {
      crossing += forest.pred[i] < block.begin ? 1 : 0;
    }
  }
  return static_cast<double>(crossing) / static_cast<double>(n) < options.blocked_threshold
             ? EngineChoice::kBlocked
             : EngineChoice::kJumping;
}

/// Record the per-iteration seed structure: write cell (= g) and, for chain
/// roots, the untouched cell the root folds in (= f).
void build_seed_tables(Plan& plan, const std::vector<std::size_t>& f,
                       const std::vector<std::size_t>& g,
                       const std::vector<std::uint32_t>& pred) {
  const std::size_t n = g.size();
  std::vector<std::uint32_t> write_cell(n);
  std::vector<std::uint32_t> root_cell(n);
  for (std::size_t i = 0; i < n; ++i) {
    write_cell[i] = static_cast<std::uint32_t>(g[i]);
    root_cell[i] = pred[i] == kNoIndex32 ? static_cast<std::uint32_t>(f[i]) : kNoIndex32;
  }
  plan.write_cell = std::move(write_cell);
  plan.root_cell = std::move(root_cell);
}

ScanSchedule build_scan_schedule(const std::vector<std::uint32_t>& pred) {
  ScanSchedule ss;
  const std::size_t n = pred.size();
  std::vector<std::uint8_t> head(n);
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_head = pred[i] == kNoIndex32;
    head[i] = is_head ? 1 : 0;
    if (is_head) {
      ++ss.segments;
      run = 1;
    } else {
      ++run;
    }
    ss.longest = std::max(ss.longest, run);
  }
  ss.head = std::move(head);
  return ss;
}

/// Simulate pointer jumping over the pred forest structurally, recording
/// every round's (dst, src) moves: the synchronous PRAM rounds with values
/// stripped out, each round's moves in ascending active-set order, so an
/// executor replay is bit-identical to the legacy engine.
JumpSchedule build_jump_schedule(const std::vector<std::uint32_t>& pred) {
  JumpSchedule js;
  const std::size_t n = pred.size();
  std::vector<std::uint32_t> ptr = pred;
  std::vector<std::uint32_t> active;
  active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (ptr[i] != kNoIndex32) active.push_back(static_cast<std::uint32_t>(i));
  }
  js.seed_ops = n - active.size();

  const std::size_t max_rounds = static_cast<std::size_t>(std::bit_width(n)) + 2;
  std::vector<std::uint32_t> dst;
  std::vector<std::uint32_t> src;
  std::vector<std::size_t> round_begin = {0};
  while (!active.empty()) {
    IR_INVARIANT(round_begin.size() - 1 < max_rounds, "pointer jumping failed to converge");
    const std::size_t width = active.size();
    js.peak_active = std::max(js.peak_active, width);
    // The round's moves are the active set in order.  Every pointer points
    // at an earlier iteration, so a descending sweep reads each ptr[p]
    // before iteration p jumps: the synchronous round, in place.
    const std::size_t base = dst.size();
    if (base + width > dst.capacity()) {
      // Grow to powers of two, as push_back does: capacity stays below
      // twice the final table, and no growth copies more than half of it.
      dst.reserve(std::bit_ceil(base + width));
      src.reserve(std::bit_ceil(base + width));
    }
    dst.insert(dst.end(), active.begin(), active.end());
    src.resize(base + width);
    for (std::size_t k = width; k-- > 0;) {
      const std::uint32_t i = active[k];
      const std::uint32_t p = ptr[i];
      src[base + k] = p;
      ptr[i] = ptr[p];
    }
    std::size_t kept = 0;
    for (std::size_t k = 0; k < width; ++k) {
      if (ptr[active[k]] != kNoIndex32) active[kept++] = active[k];
    }
    active.resize(kept);
    round_begin.push_back(dst.size());
  }
  js.dst = std::move(dst);
  js.src = std::move(src);
  js.round_begin = std::move(round_begin);
  return js;
}

/// Precompute the two-level schedule: in-block predecessor links for the
/// phase-1 sweeps and the (dst, src) fix-up pairs for phase 2, block-major.
BlockedSchedule build_blocked_schedule(const std::vector<std::uint32_t>& pred,
                                       std::size_t want_blocks) {
  BlockedSchedule bs;
  const std::size_t n = pred.size();
  bs.local_pred.assign(n, kNoIndex32);
  if (n == 0) {
    bs.fix_begin.push_back(0);
    return bs;
  }
  bs.blocks = parallel::partition_blocks(n, want_blocks);

  // ext[i]: the still-unresolved predecessor outside i's block, propagated
  // along in-block chains exactly as the legacy phase-1 sweep does.
  std::vector<std::uint32_t> ext(n, kNoIndex32);
  for (const auto& block : bs.blocks) {
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const std::uint32_t p = pred[i];
      if (p == kNoIndex32) {
        ++bs.phase1_ops;  // root seed
      } else if (p >= block.begin) {
        bs.local_pred[i] = p;
        ext[i] = ext[p];
        ++bs.phase1_ops;
      } else {
        ext[i] = p;  // cross-block: resolve in phase 2
      }
    }
  }

  bs.fix_begin.reserve(bs.blocks.size() + 1);
  bs.fix_begin.push_back(0);
  for (const auto& block : bs.blocks) {
    for (std::size_t i = block.begin; i < block.end; ++i) {
      if (ext[i] != kNoIndex32) {
        bs.fix_dst.push_back(static_cast<std::uint32_t>(i));
        bs.fix_src.push_back(ext[i]);
      }
    }
    if (bs.fix_dst.size() != bs.fix_begin.back()) ++bs.resolve_rounds;
    bs.fix_begin.push_back(bs.fix_dst.size());
  }
  return bs;
}

/// One entry per written cell, from its final writer's reads.
ElementwiseSchedule build_elementwise_schedule(const std::vector<std::size_t>& writer,
                                               const std::vector<std::size_t>& f,
                                               const std::vector<std::size_t>& h) {
  ElementwiseSchedule es;
  for (std::size_t cell = 0; cell < writer.size(); ++cell) {
    const std::size_t i = writer[cell];
    if (i == kNone) continue;
    es.cell.push_back(static_cast<std::uint32_t>(cell));
    es.f.push_back(static_cast<std::uint32_t>(f[i]));
    es.h.push_back(static_cast<std::uint32_t>(h[i]));
  }
  return es;
}

/// `last[c]` is the final writer of cell c, or kNone.
GirSchedule build_gir_schedule(const GeneralIrSystem& sys, const std::vector<std::size_t>& last,
                               const PlanOptions& options) {
  GirSchedule gs;
  const DependenceGraph graph = build_dependence_graph(sys);

  std::vector<std::vector<graph::Edge>> counts;
  if (options.reference_counts) {
    counts = graph::path_counts_reference(graph.dag);
    gs.live_equations = sys.iterations();
  } else {
    graph::CapOptions cap_options;
    cap_options.coalesce_each_round = options.coalesce_each_round;
    cap_options.pool = options.pool;
    if (options.prune_dead) {
      // Mark the ancestors of every final-writer node (DFS along
      // consumer -> producer edges); everything else is a dead write.
      std::vector<bool> active(graph.dag.node_count(), false);
      std::vector<std::size_t> stack;
      for (std::size_t cell = 0; cell < sys.cells; ++cell) {
        if (last[cell] != kNone && !active[last[cell]]) {
          active[last[cell]] = true;
          stack.push_back(last[cell]);
        }
      }
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        for (const auto& e : graph.dag.out_edges(v)) {
          if (!active[e.to]) {
            active[e.to] = true;
            stack.push_back(e.to);
          }
        }
      }
      std::size_t live = 0;
      for (std::size_t i = 0; i < graph.iterations; ++i) live += active[i] ? 1 : 0;
      gs.live_equations = live;
      cap_options.active = std::move(active);
    } else {
      gs.live_equations = sys.iterations();
    }
    graph::CapResult cap = graph::cap_closure(graph.dag, cap_options);
    counts = std::move(cap.counts);
    gs.cap_rounds = cap.rounds;
    gs.cap_peak_edges = cap.peak_edges;
  }

  // Resolve graph node ids down to cells so the executor never sees the
  // dependence graph: one powered-leaf term list per written cell.
  for (std::size_t cell = 0; cell < sys.cells; ++cell) {
    const std::size_t writer = last[cell];
    if (writer == kNone) continue;
    const auto& powers = counts[writer];
    IR_INVARIANT(!powers.empty(), "an equation node must reach at least one leaf");
    gs.cell.push_back(static_cast<std::uint32_t>(cell));
    for (const auto& edge : powers) {
      const std::size_t leaf_local = edge.to - graph.iterations;
      IR_INVARIANT(leaf_local < graph.leaf_cell.size(), "CAP edge must point at a leaf");
      gs.term_cell.push_back(static_cast<std::uint32_t>(graph.leaf_cell[leaf_local]));
      gs.term_exp.push_back(edge.label);
    }
    gs.term_begin.push_back(gs.term_cell.size());
  }
  return gs;
}

/// Route, check the fit, and build the chosen engine's schedule.  `h` is the
/// system's h map (g for an ordinary system) and `writer[c]` the final
/// writer of cell c, or kNone.  A forced engine that does not fit throws
/// before any schedule table is built.
template <typename System>
Plan compile_forest(const System& sys, const std::vector<std::size_t>& h,
                    std::vector<std::size_t> writer, const Forest& forest,
                    const PlanOptions& options) {
  const EngineChoice choice = resolve_engine(forest, options);
  Plan plan;
  plan.cells = sys.cells;
  plan.iterations = sys.iterations();
  switch (choice) {
    case EngineChoice::kElementwise:
      IR_REQUIRE(forest.dependences == 0,
                 "the elementwise engine needs a recurrence-free system");
      plan.engine = PlanEngine::kElementwise;
      plan.elementwise = build_elementwise_schedule(writer, sys.f, h);
      break;

    case EngineChoice::kJumping:
    case EngineChoice::kBlocked:
    case EngineChoice::kScan:
      IR_REQUIRE(forest.ordinary,
                 "ordinary engines need an ordinary-shaped system (h = g, g injective)");
      IR_REQUIRE(choice != EngineChoice::kScan || forest.chain,
                 "the scan engine needs a chain-structured system "
                 "(every pred is the previous iteration or none)");
      writer = std::vector<std::size_t>();  // freed: ordinary schedules read the forest
      build_seed_tables(plan, sys.f, sys.g, forest.pred);
      plan.chain = forest.chain;
      if (choice == EngineChoice::kScan) {
        plan.engine = PlanEngine::kScan;
        plan.scan = build_scan_schedule(forest.pred);
      } else if (choice == EngineChoice::kBlocked) {
        plan.engine = PlanEngine::kBlocked;
        const std::size_t want_blocks =
            options.blocks != 0 ? options.blocks
                                : (options.pool != nullptr ? options.pool->size() : 1);
        plan.blocked = build_blocked_schedule(forest.pred, want_blocks);
      } else {
        plan.engine = PlanEngine::kJumping;
        plan.jump = build_jump_schedule(forest.pred);
      }
      break;

    case EngineChoice::kGeneralCap:
      plan.engine = PlanEngine::kGeneralCap;
      if constexpr (std::is_same_v<System, GeneralIrSystem>) {
        plan.gir = build_gir_schedule(sys, writer, options);
      } else {
        plan.gir = build_gir_schedule(GeneralIrSystem::from_ordinary(sys), writer, options);
      }
      break;

    case EngineChoice::kAuto:
      IR_REQUIRE(false, "routing must have resolved kAuto");
      break;
  }

  plan.fingerprint = content_fingerprint(sys);
  IR_COUNTER_ADD("plan.compiles", 1);
  return plan;
}

}  // namespace

// The option words that enter the key for the requested engine, in mixing
// order — shared by plan_cache_key and plan_key_check so the two always
// agree on *what* distinguishes two compiles and differ only in *how* they
// hash it.  Each engine records exactly the knobs its compile_plan branch
// reads, so this never looks at the system.
PlanKeyWords plan_key_words(const PlanOptions& options) {
  PlanKeyWords out;
  out.engine = static_cast<std::uint64_t>(options.engine);
  // Resolve every pool-derived hint to a number so pool identity (and
  // lifetime) never leaks into the key.
  const std::size_t pool_size = options.pool != nullptr ? options.pool->size() : 0;
  const std::uint64_t resolved_blocks =
      options.blocks != 0 ? options.blocks : (pool_size != 0 ? pool_size : 1);
  const std::uint64_t gir_flags = (options.prune_dead ? 1u : 0u) |
                                  (options.coalesce_each_round ? 2u : 0u) |
                                  (options.reference_counts ? 4u : 0u);
  switch (options.engine) {
    case EngineChoice::kElementwise:
    case EngineChoice::kJumping:
    case EngineChoice::kScan:
      break;  // schedule depends on the system content alone
    case EngineChoice::kBlocked:
      out.words[out.count++] = resolved_blocks;
      break;
    case EngineChoice::kGeneralCap:
      out.words[out.count++] = gir_flags;
      break;
    case EngineChoice::kAuto: {
      out.words[out.count++] = resolved_blocks;
      out.words[out.count++] = pool_size != 0 ? pool_size : 4;  // routing block hint
      std::uint64_t threshold_bits = 0;
      static_assert(sizeof threshold_bits == sizeof options.blocked_threshold);
      std::memcpy(&threshold_bits, &options.blocked_threshold, sizeof threshold_bits);
      out.words[out.count++] = threshold_bits;
      out.words[out.count++] = gir_flags;
      break;
    }
  }
  return out;
}

std::uint64_t plan_cache_key_for(std::uint64_t fingerprint, const PlanKeyWords& kw) {
  std::uint64_t hash = kFnvOffset;
  mix_u64(hash, fingerprint);
  mix_u64(hash, kw.engine);
  for (std::size_t i = 0; i < kw.count && i < kMaxPlanKeyWords; ++i) {
    mix_u64(hash, kw.words[i]);
  }
  return hash;
}

PlanKeyCheck plan_key_check_for(const ContentIdentity& id, const PlanKeyWords& kw) {
  // hash_combine-style mixing — deliberately not FNV-1a, so an input pair
  // that collides the primary key has no structural reason to collide here.
  std::uint64_t hash = id.hash2;
  auto mix2 = [&hash](std::uint64_t value) {
    hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  };
  mix2(kw.engine);
  for (std::size_t i = 0; i < kw.count && i < kMaxPlanKeyWords; ++i) {
    mix2(kw.words[i]);
  }
  return {0, hash};
}

std::uint64_t plan_cache_key(const GeneralIrSystem& sys, const PlanOptions& options) {
  return plan_cache_key_for(content_fingerprint(sys), plan_key_words(options));
}

std::uint64_t plan_cache_key(const OrdinaryIrSystem& sys, const PlanOptions& options) {
  return plan_cache_key_for(content_fingerprint(sys), plan_key_words(options));
}

PlanKeyCheck plan_key_check(const GeneralIrSystem& sys, const PlanOptions& options) {
  return plan_key_check_for(content_identity(sys), plan_key_words(options));
}

PlanKeyCheck plan_key_check(const OrdinaryIrSystem& sys, const PlanOptions& options) {
  return plan_key_check_for(content_identity(sys), plan_key_words(options));
}

namespace {

template <typename System>
PlanKey plan_key_of(const System& sys, const PlanOptions& options) {
  const PlanKeyWords kw = plan_key_words(options);
  const ContentHash hashes = content_hash(sys);  // one pass, both hashes
  return {plan_cache_key_for(hashes.fingerprint, kw), plan_key_check_for(hashes.identity, kw),
          kw};
}

}  // namespace

PlanKey plan_key(const GeneralIrSystem& sys, const PlanOptions& options) {
  return plan_key_of(sys, options);
}

PlanKey plan_key(const OrdinaryIrSystem& sys, const PlanOptions& options) {
  return plan_key_of(sys, options);
}

Plan compile_plan(const GeneralIrSystem& sys, const PlanOptions& options) {
  IR_SPAN("plan.compile");
  sys.validate();
  require_plan_bounds(sys.cells, sys.iterations());

  // One pass: pred through f, both counts, and each cell's final writer
  // (latest[] once the pass is done).  Reads see only earlier writes.
  const std::size_t n = sys.iterations();
  std::vector<std::size_t> latest(sys.cells, kNone);
  Forest forest;
  forest.pred.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    forest.link(i, latest[sys.f[i]]);
    forest.dependences += latest[sys.h[i]] != kNone ? 1 : 0;
    std::size_t& last = latest[sys.g[i]];
    forest.ordinary = forest.ordinary && last == kNone && sys.h[i] == sys.g[i];
    last = i;
  }
  return compile_forest(sys, sys.h, std::move(latest), forest, options);
}

Plan compile_plan(const OrdinaryIrSystem& sys, const PlanOptions& options) {
  IR_SPAN("plan.compile");
  require_plan_bounds(sys.cells, sys.iterations());
  std::vector<std::size_t> writer = sys.validated_writers();

  // g is injective, so pred(i) is the one writer of f(i) when it precedes i.
  const std::size_t n = sys.iterations();
  Forest forest;
  forest.pred.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = writer[sys.f[i]];
    forest.link(i, w < i ? w : kNone);
  }
  return compile_forest(sys, sys.g, std::move(writer), forest, options);
}

}  // namespace ir::core
