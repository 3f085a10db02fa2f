// Binary plan format + on-disk plan store (docs/plan_store.md).
//
// Compiled plans are pure functions of (system content, requested options),
// so they are durable artifacts: compile once, persist, and every later
// process — an irserve restart, a shard fleet sharing one read-only store —
// replays the schedule without rebuilding it.  Only gir-cap plans are
// stored: the CAP closure is the expensive build, while an ordinary
// schedule compiles faster than its file verifies, so ordinary systems
// recompile after a restart.  The format is designed around the fact that
// the CAP tables are flat arrays (uint32 cells, size_t offsets):
//
//   * versioned + endianness-tagged header with per-section offset/length
//     table and a whole-file checksum;
//   * every section 8-byte aligned, so a loaded Plan BORROWS its cell and
//     offset tables straight out of the mapping (PlanTable's borrowing state
//     — zero copy).  The exponent table, whose arbitrary-precision values
//     are materialized from the file's limb pool, is the one copy;
//   * the source system is embedded as its canonical ir-system v1 text, so
//     a plan file is self-contained: the loader re-derives the fingerprint
//     and the cache identity, and runs the full static verifier against it.
//
// Trust model: plan files are data, not code, and are treated as untrusted.
// Loading validates the header, the checksum, and every section bound
// before touching a table, then runs verify_plan() — bounds, preconditions,
// hazards AND the symbolic exponent check — against the embedded system.
// A corrupt, truncated, or tampered file is rejected with a reason — never
// executed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "support/thread_annotations.hpp"

namespace ir::core {

/// Bumped on any layout change; readers reject other versions (the format
/// is an artifact cache, not an archival interchange format — recompiling
/// is always safe, so there is no cross-version migration).  Two older
/// versions are rejected by name: version 2 files also stored ordinary
/// plans, and version 3 headers carry fingerprints of the system text
/// where v4 hashes the index words (core/serialize.hpp).
inline constexpr std::uint32_t kPlanFormatVersion = 4;

/// File extension the store uses for its entries.
inline constexpr const char* kPlanFileExtension = ".irplan";

/// A plan loaded from the binary format (always gir-cap).  `plan->backing`
/// owns the mapping (or buffer) the schedule tables point into; the system
/// is parsed from the embedded canonical text (it is what verify ran
/// against).  The cache identity is NOT taken on faith from the header: the
/// loader re-derives store_key/check from the embedded system plus the
/// recorded key words and rejects the file when the header disagrees, so a
/// spliced file (one system's plan under another's identity) can never be
/// served.
struct LoadedPlan {
  std::shared_ptr<const Plan> plan;
  GeneralIrSystem system;
  std::uint64_t store_key = 0;  ///< plan_cache_key, validated against `system`
  PlanKeyCheck check;           ///< collision double-check, validated likewise
  PlanKeyWords key_words;       ///< the option words the identity derives from
};

/// Why `plan` cannot be stored, or nullopt when it can: v4 files hold only
/// gir-cap plans, and only those whose symbolic check fits the loader's
/// fixed budget — a store never writes an entry its own loader would
/// refuse.  serialize_plan and PlanStore::put throw with this reason; the
/// Solver's write-through skips such plans.
[[nodiscard]] std::optional<std::string> plan_store_refusal(const Plan& plan);

/// Serialize `plan` (+ its source system and cache identity) to the binary
/// plan format.  `key_words` is plan_key_words(options) of the options the
/// plan was compiled under; the store key and check are derived from it and
/// the system *inside* this function, so a file's recorded identity is
/// consistent with its payload by construction.  Throws
/// support::ContractViolation with plan_store_refusal's reason for a plan
/// the format does not hold.
[[nodiscard]] std::string serialize_plan(const Plan& plan, const GeneralIrSystem& sys,
                                         const PlanKeyWords& key_words);

/// Validate + verify + load a plan from an in-memory buffer, zero-copy: the
/// returned plan's tables alias `bytes`' storage, kept alive via
/// Plan::backing.  Throws support::ContractViolation with a reason on any
/// defect.
[[nodiscard]] LoadedPlan load_plan(std::shared_ptr<const std::string> bytes);

/// mmap `path` read-only and load zero-copy (the mapping lives as long as
/// the returned plan).  Throws support::ContractViolation on I/O errors and
/// every defect load_plan rejects.
[[nodiscard]] LoadedPlan load_plan_file(const std::string& path);

/// Header facts of a plan file (checksum verified, tables untouched) — the
/// `irtool plan info` view.
struct PlanFileInfo {
  std::uint32_t version = 0;
  PlanEngine engine = PlanEngine::kGeneralCap;
  std::uint64_t requested = 0;  ///< EngineChoice id the store key was built for
  std::uint64_t fingerprint = 0;
  std::uint64_t store_key = 0;
  PlanKeyCheck check;
  std::uint64_t cells = 0;
  std::uint64_t iterations = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;

  struct Section {
    const char* name;
    std::uint64_t offset;
    std::uint64_t bytes;
  };
  std::vector<Section> sections;  ///< non-empty sections, file order
};

[[nodiscard]] PlanFileInfo plan_file_info(const std::string& path);

/// On-disk plan store: a flat directory of `plan-<key>.irplan` files keyed
/// by plan_cache_key.  put() is atomic (tmp + rename into place), get()
/// loads + verifies and applies the same PlanKeyCheck double-check as the
/// in-memory PlanCache, manifest() enumerates entries from their headers
/// without loading tables.  Safe for concurrent readers and writers across
/// processes: rename is the commit point, and a reader only ever sees a
/// complete file or none.
///
/// Counters are exposed as accessors and as plan_store.* metrics
/// (docs/observability.md).  get() never throws for a bad entry: an absent
/// key is a miss, an unreadable/corrupt/unverifiable file is a reject —
/// both return null and the caller compiles instead.
class PlanStore {
 public:
  explicit PlanStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Path a key's entry lives at (whether or not it exists yet).
  [[nodiscard]] std::string entry_path(std::uint64_t key) const;

  /// Persist a compiled gir-cap plan under the key derived from (`sys`,
  /// `key_words`); returns the final path.  Throws
  /// support::ContractViolation on I/O failure and, before touching the
  /// directory, with plan_store_refusal's reason for any other plan.
  std::string put(const PlanKeyWords& key_words, const Plan& plan,
                  const GeneralIrSystem& sys);

  /// Load + verify the entry for `key`; null when absent (miss) or when the
  /// file fails validation/verification or its recorded identity disagrees
  /// with `check` (reject).
  [[nodiscard]] std::shared_ptr<const Plan> get(std::uint64_t key,
                                                const PlanKeyCheck& check);

  struct ManifestEntry {
    std::string path;
    std::uint64_t store_key = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t cells = 0;
    std::uint64_t iterations = 0;
    std::uint64_t file_bytes = 0;
  };

  /// Header-validated directory scan (unreadable/corrupt files are counted
  /// as rejects and skipped).
  [[nodiscard]] std::vector<ManifestEntry> manifest() const;

  /// Warm-start: load + verify every manifest entry and insert it into
  /// `cache` under its recorded key/check.  Returns the number of plans
  /// preloaded; failures count as rejects and are skipped.
  std::size_t preload(PlanCache& cache);

  [[nodiscard]] std::uint64_t hits() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t misses() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t rejects() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t puts() const IR_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t preloaded() const IR_EXCLUDES(mutex_);

 private:
  void note_reject() const IR_EXCLUDES(mutex_);

  std::string dir_;
  mutable support::Mutex mutex_;
  mutable std::uint64_t hits_ IR_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t misses_ IR_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t rejects_ IR_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t puts_ IR_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t preloaded_ IR_GUARDED_BY(mutex_) = 0;
};

}  // namespace ir::core
