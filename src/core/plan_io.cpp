#include "core/plan_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "core/serialize.hpp"
#include "obs/telemetry.hpp"
#include "support/contract.hpp"
#include "verify/verify.hpp"

namespace ir::core {

namespace {

// ---------------------------------------------------------------------------
// On-disk layout.  A fixed-size header (8-byte multiple, no implicit
// padding — the static_asserts pin it) followed by the section payloads,
// each zero-padded to 8-byte alignment so borrowed tables are naturally
// aligned inside the mapping.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'I', 'R', 'P', 'L', 'A', 'N', '\n', '\0'};

/// Written as the native 32-bit value 0x01020304; a reader on a machine
/// with a different byte order sees 0x04030201 and rejects the file.
constexpr std::uint32_t kEndianTag = 0x01020304u;

enum SectionId : std::size_t {
  kSecSystemText = 0,
  kSecGirCell,
  kSecGirTermBegin,
  kSecGirTermCell,
  kSecGirExpBegin,
  kSecGirExpLimbs,
  kSectionCount,
};

constexpr const char* kSectionNames[kSectionCount] = {
    "system-text",    "gir-cell",      "gir-term-begin",
    "gir-term-cell",  "gir-exp-begin", "gir-exp-limbs",
};

/// Element width of each section's payload, for the bounds gate.
constexpr std::uint64_t kSectionElemBytes[kSectionCount] = {1, 4, 8, 4, 8, 4};

struct PlanSection {
  std::uint64_t offset;  ///< absolute file offset, 8-byte aligned
  std::uint64_t bytes;   ///< exact payload length (no padding)
};

/// Fixed scalar-stat slots: the CAP counters that are not tables.
enum ScalarId : std::size_t {
  kScGirCapRounds = 0,
  kScGirCapPeakEdges,
  kScGirLiveEquations,
  kScalarCount,
};

struct PlanFileHeader {
  char magic[8];
  std::uint32_t endian_tag;
  std::uint32_t version;
  std::uint32_t engine;    ///< PlanEngine id; always gir-cap (since v3)
  std::uint32_t reserved;  ///< zero
  std::uint64_t word_bytes;  ///< producer's sizeof(size_t)
  std::uint64_t fingerprint;
  std::uint64_t store_key;
  std::uint64_t check_bytes;  ///< PlanKeyCheck::bytes: reserved, zero since v4
  std::uint64_t check_hash2;
  /// The (requested engine, option-word) vector the identity above derives
  /// from.  The loader re-derives store_key/check from the EMBEDDED system
  /// plus these words and rejects the file on any disagreement, so the
  /// recorded identity can never name a different system than the payload
  /// carries.
  std::uint64_t key_engine;
  std::uint64_t key_word_count;
  std::uint64_t key_words[kMaxPlanKeyWords];
  std::uint64_t cells;
  std::uint64_t iterations;
  std::uint64_t scalars[kScalarCount];
  PlanSection sections[kSectionCount];
  std::uint64_t checksum;  ///< FNV-1a 64 of the file with this field zeroed
};

static_assert(sizeof(PlanSection) == 16);
static_assert(kMaxPlanKeyWords == 4, "header layout pins four key-word slots");
static_assert(sizeof(PlanFileHeader) ==
                  8 + 4 * 4 + 7 * 8 + kMaxPlanKeyWords * 8 + 2 * 8 + kScalarCount * 8 +
                      kSectionCount * 16 + 8,
              "header must have no implicit padding");
static_assert(sizeof(PlanFileHeader) == 256);
static_assert(std::is_trivially_copyable_v<PlanFileHeader>);

constexpr std::size_t kChecksumOffset = offsetof(PlanFileHeader, checksum);

/// The loader's symbolic-check budget, in the verifier's unit (iterations ×
/// cells of the exponent-map replay).  Large enough that an 8000 × 8000
/// general system (6.4e7) verifies on load; a bigger plan is never stored,
/// and a bigger file is rejected rather than trusted unchecked.
constexpr std::size_t kLoadVerifyBudget = std::size_t{1} << 26;

/// Why a gir-cap plan of this size exceeds kLoadVerifyBudget, or nullopt
/// when it fits.
std::optional<std::string> load_budget_refusal(std::uint64_t cells, std::uint64_t iterations) {
  if (iterations == 0 || cells <= kLoadVerifyBudget / iterations) return std::nullopt;
  return "a gir-cap plan of " + std::to_string(iterations) + " equations over " +
         std::to_string(cells) + " cells is too large to verify on load";
}

[[noreturn]] void reject(const std::string& why) {
  throw support::ContractViolation("plan file rejected: " + why);
}

/// Thrown (file-locally) when a plan file does not exist at all, so
/// PlanStore::get can classify ENOENT as a miss rather than a reject
/// without a racy exists() pre-check.
class PlanFileMissing : public support::ContractViolation {
 public:
  using support::ContractViolation::ContractViolation;
};

std::uint64_t fnv1a(const unsigned char* data, std::size_t size, std::uint64_t hash) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Whole-file checksum with the checksum field treated as zero.
std::uint64_t file_checksum(const unsigned char* data, std::size_t size) {
  constexpr unsigned char kZero[8] = {0};
  std::uint64_t hash = 1469598103934665603ull;
  hash = fnv1a(data, kChecksumOffset, hash);
  hash = fnv1a(kZero, sizeof kZero, hash);
  hash = fnv1a(data + kChecksumOffset + 8, size - kChecksumOffset - 8, hash);
  return hash;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void append_section(std::string& out, PlanFileHeader& header, SectionId id,
                    const void* data, std::uint64_t bytes) {
  if (bytes == 0) {
    header.sections[id] = {0, 0};
    return;
  }
  while (out.size() % 8 != 0) out.push_back('\0');
  header.sections[id] = {out.size(), bytes};
  out.append(static_cast<const char*>(data), bytes);
}

template <typename T>
void append_table(std::string& out, PlanFileHeader& header, SectionId id,
                  const PlanTable<T>& table) {
  append_section(out, header, id, table.data(), table.size() * sizeof(T));
}

}  // namespace

std::optional<std::string> plan_store_refusal(const Plan& plan) {
  if (plan.engine != PlanEngine::kGeneralCap) {
    return to_string(plan.engine) +
           " plans are not stored: .irplan v4 holds gir-cap plans only (every other "
           "route compiles faster than a stored plan verifies)";
  }
  return load_budget_refusal(plan.cells, plan.iterations);
}

std::string serialize_plan(const Plan& plan, const GeneralIrSystem& sys,
                           const PlanKeyWords& key_words) {
  if (const auto refusal = plan_store_refusal(plan)) {
    throw support::ContractViolation(*refusal);
  }
  const ContentHash hashes = content_hash(sys);
  IR_REQUIRE(plan.fingerprint == hashes.fingerprint,
             "plan was not compiled from this system (fingerprint mismatch)");
  IR_REQUIRE(key_words.count <= kMaxPlanKeyWords,
             "plan key words exceed the format's fixed slots");
  // Derive the recorded identity from (system, key words) right here: a
  // written file's store key and check are consistent with its embedded
  // system by construction, mirroring the loader's re-derivation gate.
  const std::uint64_t store_key = plan_cache_key_for(hashes.fingerprint, key_words);
  const PlanKeyCheck check = plan_key_check_for(hashes.identity, key_words);

  PlanFileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.endian_tag = kEndianTag;
  header.version = kPlanFormatVersion;
  header.engine = static_cast<std::uint32_t>(plan.engine);
  header.word_bytes = sizeof(std::size_t);
  header.fingerprint = plan.fingerprint;
  header.store_key = store_key;
  header.check_bytes = check.bytes;
  header.check_hash2 = check.hash2;
  header.key_engine = key_words.engine;
  header.key_word_count = key_words.count;
  for (std::size_t w = 0; w < key_words.count; ++w) {
    header.key_words[w] = key_words.words[w];  // unused slots stay zero
  }
  header.cells = plan.cells;
  header.iterations = plan.iterations;
  header.scalars[kScGirCapRounds] = plan.gir.cap_rounds;
  header.scalars[kScGirCapPeakEdges] = plan.gir.cap_peak_edges;
  header.scalars[kScGirLiveEquations] = plan.gir.live_equations;

  std::string out(sizeof(PlanFileHeader), '\0');
  const std::string system_text = to_text(sys);
  append_section(out, header, kSecSystemText, system_text.data(), system_text.size());
  append_table(out, header, kSecGirCell, plan.gir.cell);
  append_table(out, header, kSecGirTermBegin, plan.gir.term_begin);
  append_table(out, header, kSecGirTermCell, plan.gir.term_cell);

  // The exponents are the one variable-width table: a limb pool plus a
  // per-term [begin, end) offset table into it, the same CSR shape the
  // term lists use.
  if (!plan.gir.term_exp.empty()) {
    std::vector<std::uint64_t> exp_begin;
    std::vector<std::uint32_t> limbs;
    exp_begin.reserve(plan.gir.term_exp.size() + 1);
    exp_begin.push_back(0);
    for (const auto& exp : plan.gir.term_exp) {
      limbs.insert(limbs.end(), exp.limbs().begin(), exp.limbs().end());
      exp_begin.push_back(limbs.size());
    }
    append_section(out, header, kSecGirExpBegin, exp_begin.data(),
                   exp_begin.size() * sizeof(std::uint64_t));
    append_section(out, header, kSecGirExpLimbs, limbs.data(),
                   limbs.size() * sizeof(std::uint32_t));
  }

  std::memcpy(out.data(), &header, sizeof header);
  const std::uint64_t checksum =
      file_checksum(reinterpret_cast<const unsigned char*>(out.data()), out.size());
  std::memcpy(out.data() + kChecksumOffset, &checksum, sizeof checksum);
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// The header's engine field stores the PlanEngine value; v4 files carry
/// gir-cap only.
static_assert(static_cast<std::uint32_t>(PlanEngine::kGeneralCap) == 4);

/// Header + bounds + checksum gate.  Everything here runs before any table
/// pointer is formed, so a hostile file cannot steer a single read outside
/// [data, data+size).  The version and engine gates run before the
/// checksum, so a stale file is named for what it is, not as corrupt.
PlanFileHeader validate_structure(const unsigned char* data, std::size_t size) {
  if (size < sizeof(PlanFileHeader)) {
    reject("truncated: " + std::to_string(size) + " bytes, header needs " +
           std::to_string(sizeof(PlanFileHeader)));
  }
  PlanFileHeader header;
  std::memcpy(&header, data, sizeof header);
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    reject("bad magic (not an " + std::string(kPlanFileExtension) + " plan file)");
  }
  if (header.endian_tag != kEndianTag) {
    reject("foreign byte order (endianness tag mismatch); re-export on this platform");
  }
  if (header.version == 2) {
    reject("format version 2 stored ordinary plans; v4 holds gir-cap plans only — "
           "recompile");
  }
  if (header.version == 3) {
    reject("format version 3: v3 fingerprints hash the system text; re-export");
  }
  if (header.version != kPlanFormatVersion) {
    reject("format version " + std::to_string(header.version) + ", reader supports " +
           std::to_string(kPlanFormatVersion));
  }
  if (header.word_bytes != sizeof(std::size_t)) {
    reject("word size " + std::to_string(header.word_bytes) + " bytes, platform has " +
           std::to_string(sizeof(std::size_t)));
  }
  if (header.engine != static_cast<std::uint32_t>(PlanEngine::kGeneralCap)) {
    reject("engine id " + std::to_string(header.engine) +
           " is not gir-cap; v4 holds gir-cap plans only — recompile");
  }
  const std::uint64_t checksum = file_checksum(data, size);
  if (checksum != header.checksum) {
    reject("checksum mismatch (file corrupt or tampered)");
  }
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const PlanSection& sec = header.sections[s];
    if (sec.bytes == 0) continue;
    if (sec.offset % 8 != 0 || sec.offset < sizeof(PlanFileHeader) ||
        sec.offset > size || sec.bytes > size - sec.offset) {
      reject(std::string("section ") + kSectionNames[s] + " out of bounds (offset " +
             std::to_string(sec.offset) + ", " + std::to_string(sec.bytes) +
             " bytes in a " + std::to_string(size) + "-byte file)");
    }
    if (sec.bytes % kSectionElemBytes[s] != 0) {
      reject(std::string("section ") + kSectionNames[s] + " length " +
             std::to_string(sec.bytes) + " is not a multiple of its " +
             std::to_string(kSectionElemBytes[s]) + "-byte elements");
    }
  }
  return header;
}

template <typename T>
void borrow_table(PlanTable<T>& table, const unsigned char* data,
                  const PlanSection& sec) {
  if (sec.bytes == 0) {
    table.clear();
    return;
  }
  table.borrow(reinterpret_cast<const T*>(data + sec.offset), sec.bytes / sizeof(T));
}

/// Shared loader core: structural gate, embedded-system round trip, table
/// borrowing, then the full static verifier.
LoadedPlan load_plan_bytes(const unsigned char* data, std::size_t size,
                           std::shared_ptr<const void> backing) {
  const PlanFileHeader header = validate_structure(data, size);
  if (const auto too_large = load_budget_refusal(header.cells, header.iterations)) {
    reject(*too_large);
  }

  // Parse the embedded system and tie the knot: the header fingerprint must
  // be the fingerprint of exactly those bytes, or the plan and "its" system
  // have drifted apart and nothing downstream can be trusted.
  const PlanSection& sys_sec = header.sections[kSecSystemText];
  LoadedPlan loaded;
  try {
    loaded.system = system_from_text(std::string_view(
        reinterpret_cast<const char*>(data + sys_sec.offset), sys_sec.bytes));
  } catch (const support::ContractViolation& e) {
    reject(std::string("embedded system unparseable: ") + e.what());
  }
  const ContentHash hashes = content_hash(loaded.system);  // one pass, both hashes
  if (hashes.fingerprint != header.fingerprint) {
    reject("fingerprint mismatch between header and embedded system");
  }
  if (loaded.system.cells != header.cells ||
      loaded.system.iterations() != header.iterations) {
    reject("header cells/iterations disagree with the embedded system");
  }

  // Only kAuto and forced gir compile gir-cap plans, and each records a
  // fixed number of option words (plan_key_words).
  const bool auto_key = header.key_engine == static_cast<std::uint64_t>(EngineChoice::kAuto);
  if (!auto_key && header.key_engine != static_cast<std::uint64_t>(EngineChoice::kGeneralCap)) {
    reject("requested engine id " + std::to_string(header.key_engine) +
           " never compiles a gir-cap plan");
  }
  const EngineChoice requested = auto_key ? EngineChoice::kAuto : EngineChoice::kGeneralCap;
  if (header.key_word_count != plan_key_words({.engine = requested}).count) {
    reject("key-word count " + std::to_string(header.key_word_count) +
           " does not match the requested engine");
  }

  // Re-derive the cache identity from the EMBEDDED system plus the recorded
  // key words, and demand the header recorded exactly that.  This ties
  // store_key/check to the payload itself: a spliced file — one system's
  // verified plan wearing another system's key and check, checksum resealed
  // — fails here and is never served for the wrong system.
  PlanKeyWords key_words;
  key_words.engine = header.key_engine;
  key_words.count = header.key_word_count;
  for (std::size_t w = 0; w < key_words.count; ++w) {
    key_words.words[w] = header.key_words[w];
  }
  if (plan_cache_key_for(hashes.fingerprint, key_words) != header.store_key) {
    reject("store key does not derive from the embedded system (spliced or "
           "tampered identity)");
  }
  const PlanKeyCheck derived_check = plan_key_check_for(hashes.identity, key_words);
  if (!(derived_check == PlanKeyCheck{header.check_bytes, header.check_hash2})) {
    reject("key check does not derive from the embedded system (spliced or "
           "tampered identity)");
  }

  auto plan = std::make_shared<Plan>();
  plan->engine = PlanEngine::kGeneralCap;
  plan->fingerprint = header.fingerprint;
  plan->cells = header.cells;
  plan->iterations = header.iterations;
  plan->gir.cap_rounds = header.scalars[kScGirCapRounds];
  plan->gir.cap_peak_edges = header.scalars[kScGirCapPeakEdges];
  plan->gir.live_equations = header.scalars[kScGirLiveEquations];

  borrow_table(plan->gir.cell, data, header.sections[kSecGirCell]);
  if (header.sections[kSecGirTermBegin].bytes != 0) {
    borrow_table(plan->gir.term_begin, data, header.sections[kSecGirTermBegin]);
  }
  borrow_table(plan->gir.term_cell, data, header.sections[kSecGirTermCell]);

  // Materialize the exponents from the limb pool (the one non-borrowed
  // table).  The CSR offsets are untrusted: monotone + in-bounds or reject.
  const PlanSection& exp_begin_sec = header.sections[kSecGirExpBegin];
  const PlanSection& limb_sec = header.sections[kSecGirExpLimbs];
  if (exp_begin_sec.bytes != 0) {
    const auto* exp_begin =
        reinterpret_cast<const std::uint64_t*>(data + exp_begin_sec.offset);
    const std::size_t begin_count = exp_begin_sec.bytes / sizeof(std::uint64_t);
    const auto* limbs = reinterpret_cast<const std::uint32_t*>(data + limb_sec.offset);
    const std::uint64_t limb_count = limb_sec.bytes / sizeof(std::uint32_t);
    if (begin_count != plan->gir.term_cell.size() + 1) {
      reject("gir-exp-begin table must hold one offset per term plus one");
    }
    if (exp_begin[0] != 0 || exp_begin[begin_count - 1] != limb_count) {
      reject("gir-exp-begin offsets do not span the limb pool");
    }
    plan->gir.term_exp.reserve(begin_count - 1);
    for (std::size_t t = 0; t + 1 < begin_count; ++t) {
      if (exp_begin[t] > exp_begin[t + 1] || exp_begin[t + 1] > limb_count) {
        reject("gir-exp-begin offsets not monotone at term " + std::to_string(t));
      }
      try {
        plan->gir.term_exp.push_back(support::BigUint::from_limbs(
            limbs + exp_begin[t],
            static_cast<std::size_t>(exp_begin[t + 1] - exp_begin[t])));
      } catch (const support::ContractViolation& e) {
        reject("gir exponent " + std::to_string(t) + " non-canonical: " + e.what());
      }
    }
  } else if (header.sections[kSecGirTermCell].bytes != 0) {
    reject("gir terms present but the exponent sections are missing");
  }

  plan->backing = std::move(backing);

  // Every verifier family against the embedded system.  Bounds, zero
  // exponents and distinct write cells catch a table entry pushed out of
  // range; only the symbolic check — the plan replayed over cell->exponent
  // maps and compared with the sequential loop — catches an in-range
  // tamper: a term_cell moved to another valid cell, or an exponent off by
  // one.  The budget check above keeps it from skipping; should it skip
  // anyway, the tables went unchecked, so that is a reject too.
  verify::VerifyOptions vopts;
  vopts.max_symbolic_terms = kLoadVerifyBudget;
  const verify::VerifyReport report = verify::verify_plan(*plan, loaded.system, vopts);
  if (!report.ok()) {
    reject("static verification failed: " + report.summary());
  }
  if (report.symbolic_skipped) {
    reject("too large to verify on load: " + report.symbolic_skip_reason);
  }

  loaded.plan = std::move(plan);
  loaded.store_key = header.store_key;
  loaded.check = PlanKeyCheck{header.check_bytes, header.check_hash2};
  loaded.key_words = key_words;
  return loaded;
}

}  // namespace

LoadedPlan load_plan(std::shared_ptr<const std::string> bytes) {
  IR_REQUIRE(bytes != nullptr, "load_plan needs a buffer");
  const auto* data = reinterpret_cast<const unsigned char*>(bytes->data());
  const std::size_t size = bytes->size();
  return load_plan_bytes(data, size, std::shared_ptr<const void>(bytes, bytes.get()));
}

namespace {

/// Read-only mmap of a whole file; unmaps on destruction.  Parked in
/// Plan::backing so the mapping outlives every borrowed table.
class FileMapping {
 public:
  explicit FileMapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        throw PlanFileMissing("plan file missing: " + path);
      }
      reject("cannot open " + path + ": " + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      reject("cannot stat " + path + ": " + std::strerror(errno));
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ != 0) {
      void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapped == MAP_FAILED) {
        ::close(fd);
        reject("cannot mmap " + path + ": " + std::strerror(errno));
      }
      data_ = static_cast<const unsigned char*>(mapped);
    }
    ::close(fd);  // the mapping holds its own reference
  }
  ~FileMapping() {
    if (data_ != nullptr) ::munmap(const_cast<unsigned char*>(data_), size_);
  }
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;

  [[nodiscard]] const unsigned char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace

LoadedPlan load_plan_file(const std::string& path) {
  auto mapping = std::make_shared<const FileMapping>(path);
  const unsigned char* data = mapping->data();
  const std::size_t size = mapping->size();
  if (data == nullptr) reject(path + " is empty");
  return load_plan_bytes(data, size, std::move(mapping));
}

PlanFileInfo plan_file_info(const std::string& path) {
  const FileMapping mapping(path);
  if (mapping.data() == nullptr) reject(path + " is empty");
  const PlanFileHeader header = validate_structure(mapping.data(), mapping.size());
  PlanFileInfo info;
  info.version = header.version;
  info.engine = static_cast<PlanEngine>(header.engine);
  info.requested = header.key_engine;
  info.fingerprint = header.fingerprint;
  info.store_key = header.store_key;
  info.check = PlanKeyCheck{header.check_bytes, header.check_hash2};
  info.cells = header.cells;
  info.iterations = header.iterations;
  info.file_bytes = mapping.size();
  info.checksum = header.checksum;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    if (header.sections[s].bytes == 0) continue;
    info.sections.push_back(
        {kSectionNames[s], header.sections[s].offset, header.sections[s].bytes});
  }
  return info;
}

// ---------------------------------------------------------------------------
// PlanStore
// ---------------------------------------------------------------------------

namespace {

std::string key_hex(std::uint64_t key) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = digits[(key >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace

PlanStore::PlanStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  IR_REQUIRE(!ec, "cannot create plan store directory " + dir_ + ": " + ec.message());
}

std::string PlanStore::entry_path(std::uint64_t key) const {
  return dir_ + "/plan-" + key_hex(key) + kPlanFileExtension;
}

std::string PlanStore::put(const PlanKeyWords& key_words, const Plan& plan,
                           const GeneralIrSystem& sys) {
  const std::string bytes = serialize_plan(plan, sys, key_words);
  // serialize_plan pinned plan.fingerprint == content_fingerprint(sys), so
  // this is the same key the file's header records.
  const std::uint64_t key = plan_cache_key_for(plan.fingerprint, key_words);
  const std::string final_path = entry_path(key);
  // Atomic publish: write the whole file under a per-writer-unique temp name
  // in the same directory, fsync, then rename onto the final name.  A reader
  // (or a concurrent writer racing on the same key) only ever observes a
  // complete file; rename is the commit point.  The temp name mixes the pid
  // with a process-wide counter so two threads putting the same key never
  // share (and never cross-unlink) a temp file.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." + std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  IR_REQUIRE(fd >= 0, "cannot create " + tmp_path + ": " + std::strerror(errno));
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      throw support::ContractViolation("cannot write " + tmp_path + ": " + why);
    }
    written += static_cast<std::size_t>(n);
  }
  const bool flushed = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !flushed) {
    ::unlink(tmp_path.c_str());
    throw support::ContractViolation("cannot flush " + tmp_path + ": " +
                                     std::strerror(errno));
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    throw support::ContractViolation("cannot publish " + final_path + ": " + why);
  }
  {
    support::LockGuard lock(mutex_);
    ++puts_;
  }
  IR_COUNTER_ADD("plan_store.puts", 1);
  return final_path;
}

void PlanStore::note_reject() const {
  support::LockGuard lock(mutex_);
  ++rejects_;
  IR_COUNTER_ADD("plan_store.rejects", 1);
}

std::shared_ptr<const Plan> PlanStore::get(std::uint64_t key, const PlanKeyCheck& check) {
  const std::string path = entry_path(key);
  // No exists() pre-check: the open itself classifies.  An entry deleted
  // between a pre-check and the open would otherwise be miscounted as a
  // reject (a corruption signal) instead of the miss it is.
  try {
    LoadedPlan loaded = load_plan_file(path);
    // The same collision discipline as the in-memory cache: the entry must
    // have been exported for exactly this (system, options) identity.
    if (loaded.store_key != key || !(loaded.check == check)) {
      note_reject();
      IR_COUNTER_ADD("plan_cache.collisions", 1);
      return nullptr;
    }
    {
      support::LockGuard lock(mutex_);
      ++hits_;
    }
    IR_COUNTER_ADD("plan_store.hits", 1);
    return loaded.plan;
  } catch (const PlanFileMissing&) {
    support::LockGuard lock(mutex_);
    ++misses_;
    IR_COUNTER_ADD("plan_store.misses", 1);
    return nullptr;
  } catch (const std::exception&) {
    note_reject();
    return nullptr;
  }
}

std::vector<PlanStore::ManifestEntry> PlanStore::manifest() const {
  std::vector<ManifestEntry> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file() || entry.path().extension() != kPlanFileExtension) {
      continue;
    }
    try {
      const PlanFileInfo info = plan_file_info(entry.path().string());
      out.push_back({entry.path().string(), info.store_key, info.fingerprint, info.cells,
                     info.iterations, info.file_bytes});
    } catch (const PlanFileMissing&) {
      // Deleted between the directory scan and the open: not a corruption.
    } catch (const std::exception&) {
      note_reject();
    }
  }
  return out;
}

std::size_t PlanStore::preload(PlanCache& cache) {
  std::size_t count = 0;
  for (const ManifestEntry& entry : manifest()) {
    try {
      LoadedPlan loaded = load_plan_file(entry.path);
      cache.insert(loaded.store_key, loaded.check, loaded.plan);
      ++count;
    } catch (const PlanFileMissing&) {
      // Deleted since the manifest scan: not a corruption.
    } catch (const std::exception&) {
      note_reject();
    }
  }
  {
    support::LockGuard lock(mutex_);
    preloaded_ += count;
  }
  IR_COUNTER_ADD("plan_store.preloaded", count);
  return count;
}

std::uint64_t PlanStore::hits() const {
  support::LockGuard lock(mutex_);
  return hits_;
}

std::uint64_t PlanStore::misses() const {
  support::LockGuard lock(mutex_);
  return misses_;
}

std::uint64_t PlanStore::rejects() const {
  support::LockGuard lock(mutex_);
  return rejects_;
}

std::uint64_t PlanStore::puts() const {
  support::LockGuard lock(mutex_);
  return puts_;
}

std::uint64_t PlanStore::preloaded() const {
  support::LockGuard lock(mutex_);
  return preloaded_;
}

}  // namespace ir::core
