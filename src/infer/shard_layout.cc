#include "infer/shard_layout.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/embedding_store.h"
#include "core/policy.h"
#include "kg/graph.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/kernels.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace infer {

namespace {

namespace fs = std::filesystem;

constexpr char kManifestTag[] = "cadrl_shards";
constexpr int kManifestVersion = 1;

// Section identifiers (ShardSection::table / ::part).
enum Table : uint32_t {
  kTabEntities = 0,
  kTabRaw = 1,
  kTabDemand = 2,
  kTabRelations = 3,
  kTabCategories = 4,
  kTabPolicy = 5,
};
enum Part : uint32_t {
  kPartRows = 0,
  kPartScales = 1,
  kPartZps = 2,
  kPartParams = 3,
};

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string ShardFileName(int index) {
  std::ostringstream name;
  name << "shard-" << std::setw(5) << std::setfill('0') << index << ".cadrl";
  return name.str();
}

// --- Manifest -------------------------------------------------------------

struct ManifestShard {
  std::string file;
  int64_t row_begin = 0;
  int64_t row_count = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;
};

struct ManifestLinear {
  int in = 0;
  int out = 0;
  bool has_bias = false;
};

// The text manifest is the publish point of a shard directory: shard files
// land first (each atomically), then the manifest atomically renames over
// the previous one — a reader sees either the old complete set or the new
// one. It carries every dimension the loader needs so a load never opens
// the original checkpoint.
struct Manifest {
  int dim = 0;
  Precision precision = Precision::kF32;
  float score_scale = 1.0f;
  int mode = 0;
  float ensemble_weight = 0.5f;
  int64_t num_entities = 0;
  int64_t num_categories = 0;
  bool demand = false;
  int64_t shard_rows = 0;
  uint64_t generation = 0;
  int policy_dim = 0;
  int policy_hidden = 0;
  bool share_history = false;
  bool condition_on_category = false;
  int lstm_c_in = 0, lstm_e_in = 0;
  ManifestLinear linears[6];  // mix_c, mix_e, head1_c, head2_c,
                              // head1_e, head2_e (the policy blob's order)
  ManifestShard meta;
  std::vector<ManifestShard> shards;
};

constexpr const char* kLinearNames[6] = {"mix_c",   "mix_e",   "head1_c",
                                         "head2_c", "head1_e", "head2_e"};

std::string SerializeManifest(const Manifest& m) {
  std::ostringstream out;
  out << kManifestTag << ' ' << kManifestVersion << '\n';
  out << "dim " << m.dim << '\n';
  out << "precision " << PrecisionName(m.precision) << '\n';
  out << std::setprecision(9);
  out << "score_scale " << m.score_scale << '\n';
  out << "mode " << m.mode << '\n';
  out << "ensemble_weight " << m.ensemble_weight << '\n';
  out << "num_entities " << m.num_entities << '\n';
  out << "num_categories " << m.num_categories << '\n';
  out << "demand " << (m.demand ? 1 : 0) << '\n';
  out << "shard_rows " << m.shard_rows << '\n';
  out << "generation " << m.generation << '\n';
  out << "policy " << m.policy_dim << ' ' << m.policy_hidden << ' '
      << (m.share_history ? 1 : 0) << ' ' << (m.condition_on_category ? 1 : 0)
      << '\n';
  out << "lstm lstm_c " << m.lstm_c_in << '\n';
  out << "lstm lstm_e " << m.lstm_e_in << '\n';
  for (int i = 0; i < 6; ++i) {
    out << "linear " << kLinearNames[i] << ' ' << m.linears[i].in << ' '
        << m.linears[i].out << ' ' << (m.linears[i].has_bias ? 1 : 0) << '\n';
  }
  out << "meta " << m.meta.file << ' ' << m.meta.crc << ' '
      << m.meta.generation << '\n';
  out << "shards " << m.shards.size() << '\n';
  for (const ManifestShard& s : m.shards) {
    out << "shard " << s.file << ' ' << s.row_begin << ' ' << s.row_count
        << ' ' << s.crc << ' ' << s.generation << '\n';
  }
  return out.str();
}

Status ParseManifest(const std::string& payload, Manifest* m) {
  std::istringstream in(payload);
  std::string tag, precision_name;
  int version = 0;
  in >> tag >> version;
  if (in.fail() || tag != kManifestTag) {
    return Status::Corruption("not a shard manifest");
  }
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported shard manifest version");
  }
  auto expect = [&in](const char* key) {
    std::string k;
    in >> k;
    return !in.fail() && k == key;
  };
  int demand = 0, share = 0, cond = 0;
  if (!expect("dim")) return Status::Corruption("manifest: missing dim");
  in >> m->dim;
  if (!expect("precision")) {
    return Status::Corruption("manifest: missing precision");
  }
  in >> precision_name;
  if (!ParsePrecision(precision_name, &m->precision)) {
    return Status::Corruption("manifest: unknown precision \"" +
                              precision_name + "\"");
  }
  if (!expect("score_scale")) {
    return Status::Corruption("manifest: missing score_scale");
  }
  in >> m->score_scale;
  if (!expect("mode")) return Status::Corruption("manifest: missing mode");
  in >> m->mode;
  if (!expect("ensemble_weight")) {
    return Status::Corruption("manifest: missing ensemble_weight");
  }
  in >> m->ensemble_weight;
  if (!expect("num_entities")) {
    return Status::Corruption("manifest: missing num_entities");
  }
  in >> m->num_entities;
  if (!expect("num_categories")) {
    return Status::Corruption("manifest: missing num_categories");
  }
  in >> m->num_categories;
  if (!expect("demand")) return Status::Corruption("manifest: missing demand");
  in >> demand;
  if (!expect("shard_rows")) {
    return Status::Corruption("manifest: missing shard_rows");
  }
  in >> m->shard_rows;
  if (!expect("generation")) {
    return Status::Corruption("manifest: missing generation");
  }
  in >> m->generation;
  if (!expect("policy")) return Status::Corruption("manifest: missing policy");
  in >> m->policy_dim >> m->policy_hidden >> share >> cond;
  m->demand = demand != 0;
  m->share_history = share != 0;
  m->condition_on_category = cond != 0;
  for (const char* name : {"lstm_c", "lstm_e"}) {
    std::string kind, got;
    in >> kind >> got;
    int* slot = std::strcmp(name, "lstm_c") == 0 ? &m->lstm_c_in
                                                 : &m->lstm_e_in;
    in >> *slot;
    if (in.fail() || kind != "lstm" || got != name) {
      return Status::Corruption("manifest: malformed lstm line");
    }
  }
  bool dims_ok = m->policy_dim >= 0 && m->policy_hidden >= 0 &&
                 m->lstm_c_in >= 0 && m->lstm_e_in >= 0;
  for (int i = 0; i < 6; ++i) {
    std::string kind, name;
    int bias = 0;
    in >> kind >> name >> m->linears[i].in >> m->linears[i].out >> bias;
    if (in.fail() || kind != "linear" || name != kLinearNames[i]) {
      return Status::Corruption("manifest: malformed linear line");
    }
    m->linears[i].has_bias = bias != 0;
    dims_ok = dims_ok && m->linears[i].in >= 0 && m->linears[i].out >= 0;
  }
  // Every size the loader derives (section sizes, the policy walk, the
  // shard count below) assumes these signs; a negative dim would turn into
  // a huge size_t there.
  if (in.fail() || !dims_ok || m->dim <= 0 || m->num_entities < 0 ||
      m->num_categories < 0 || m->shard_rows <= 0) {
    return Status::Corruption("manifest: malformed fields");
  }
  std::string key;
  in >> key;
  if (in.fail() || key != "meta") {
    return Status::Corruption("manifest: missing meta line");
  }
  in >> m->meta.file >> m->meta.crc >> m->meta.generation;
  // Shard coverage must be exactly [0, num_entities) in shard_rows steps:
  // ResolveRow's division depends on every shard but the last holding
  // precisely shard_rows rows. The count is checked before any shard line
  // is read, and entries are appended per parsed line, so a count the file
  // does not back with lines costs nothing.
  size_t num_shards = 0;
  in >> key >> num_shards;
  if (in.fail() || key != "shards") {
    return Status::Corruption("manifest: missing shard count");
  }
  const int64_t expect_shards = m->num_entities / m->shard_rows +
                                (m->num_entities % m->shard_rows != 0 ? 1 : 0);
  if (num_shards != static_cast<uint64_t>(expect_shards)) {
    return Status::Corruption("manifest: shard count " +
                              std::to_string(num_shards) +
                              " does not cover num_entities");
  }
  for (size_t i = 0; i < num_shards; ++i) {
    ManifestShard s;
    in >> key >> s.file >> s.row_begin >> s.row_count >> s.crc >>
        s.generation;
    if (in.fail() || key != "shard") {
      return Status::Corruption("manifest: malformed shard line");
    }
    const int64_t begin = static_cast<int64_t>(i) * m->shard_rows;
    if (s.row_begin != begin ||
        s.row_count != std::min(m->shard_rows, m->num_entities - begin)) {
      return Status::Corruption("manifest: shard " + s.file +
                                " has a non-contiguous row range");
    }
    m->shards.push_back(std::move(s));
  }
  return Status::OK();
}

// The manifest fields that describe a model: everything but the shard
// entries, the meta entry and the generation.
Manifest DescribeModel(const ScoringView& view, const PolicyParamsView& policy,
                       float score_scale, Precision precision,
                       int64_t shard_rows) {
  Manifest m;
  m.dim = view.dim;
  m.precision = precision;
  m.score_scale = score_scale;
  m.mode = static_cast<int>(view.mode);
  m.ensemble_weight = view.ensemble_weight;
  m.num_entities = view.num_entities;
  m.num_categories = view.num_categories;
  m.demand = view.demand_entities.present();
  m.shard_rows = shard_rows;
  m.policy_dim = policy.dim;
  m.policy_hidden = policy.hidden;
  m.share_history = policy.share_history;
  m.condition_on_category = policy.condition_on_category;
  m.lstm_c_in = policy.lstm_c.in;
  m.lstm_e_in = policy.lstm_e.in;
  const LinearView* linears[6] = {&policy.mix_c,   &policy.mix_e,
                                  &policy.head1_c, &policy.head2_c,
                                  &policy.head1_e, &policy.head2_e};
  for (int i = 0; i < 6; ++i) {
    m.linears[i] = {linears[i]->in, linears[i]->out,
                    linears[i]->bias != nullptr};
  }
  return m;
}

// --- Blob assembly --------------------------------------------------------

struct SectionPlan {
  uint32_t table = 0;
  uint32_t part = 0;
  uint64_t size = 0;
  uint64_t rows = 0;
  uint64_t offset = 0;  // filled by LayoutSections
};

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// Assigns 4096-aligned offsets and returns the total blob size.
uint64_t LayoutSections(std::vector<SectionPlan>* sections) {
  uint64_t off = sizeof(ShardHeader) + sections->size() * sizeof(ShardSection);
  for (SectionPlan& s : *sections) {
    off = AlignUp(off, kShardSectionAlign);
    s.offset = off;
    off += s.size;
  }
  return off;
}

// Allocates a zero-filled blob of `total` bytes and writes its header
// (CRC stamped) and section table; the caller encodes the payload areas.
std::unique_ptr<util::MmapFile> AssembleBlob(
    uint8_t kind, Precision precision, uint32_t dim, int64_t row_begin,
    int64_t row_count, const std::vector<SectionPlan>& sections,
    uint64_t total) {
  std::unique_ptr<util::MmapFile> blob = util::MmapFile::Allocate(total);
  ShardHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kShardMagic, sizeof(header.magic));
  header.version = kShardVersion;
  header.precision = static_cast<uint8_t>(precision);
  header.kind = kind;
  header.num_sections = static_cast<uint16_t>(sections.size());
  header.dim = dim;
  header.row_begin = row_begin;
  header.row_count = row_count;
  header.payload_bytes = total;
  char* base = blob->mutable_data();
  for (size_t i = 0; i < sections.size(); ++i) {
    ShardSection s;
    std::memset(&s, 0, sizeof(s));
    s.table = sections[i].table;
    s.part = sections[i].part;
    s.offset = sections[i].offset;
    s.size = sections[i].size;
    s.rows = sections[i].rows;
    std::memcpy(base + sizeof(ShardHeader) + i * sizeof(ShardSection), &s,
                sizeof(s));
  }
  // header_crc covers the header (with the CRC field zeroed) + section
  // table; stamp it after both are in place.
  std::memcpy(base, &header, sizeof(header));
  const size_t table_bytes =
      sizeof(ShardHeader) + sections.size() * sizeof(ShardSection);
  header.header_crc = Crc32(std::string_view(base, table_bytes));
  std::memcpy(base, &header, sizeof(header));
  return blob;
}

std::string_view Bytes(const util::MmapFile& file) {
  return std::string_view(file.data(), file.size());
}

// Encodes `rows` rows of the f32 source starting at `row_begin` into the
// blob at the planned offsets. The only row encoder: heap snapshots and
// shard files hold the same bytes by construction.
void EncodeTableSlice(const float* f32_rows, int64_t row_begin, uint64_t rows,
                      uint32_t dim, Precision precision, char* rows_dst,
                      char* scales_dst, char* zps_dst) {
  const float* src = f32_rows + row_begin * static_cast<int64_t>(dim);
  const size_t n = static_cast<size_t>(rows) * dim;
  switch (precision) {
    case Precision::kF32:
      std::memcpy(rows_dst, src, n * sizeof(float));
      return;
    case Precision::kF16:
      kernels::QuantizeRowF16(src, static_cast<int>(n),
                              reinterpret_cast<uint16_t*>(rows_dst));
      return;
    case Precision::kInt8: {
      int8_t* q = reinterpret_cast<int8_t*>(rows_dst);
      uint16_t* scales = reinterpret_cast<uint16_t*>(scales_dst);
      uint16_t* zps = reinterpret_cast<uint16_t*>(zps_dst);
      for (uint64_t i = 0; i < rows; ++i) {
        kernels::QuantizeRowQ8(src + i * dim, static_cast<int>(dim),
                               q + i * dim, scales + i, zps + i);
      }
      return;
    }
  }
  CADRL_CHECK(false) << "unknown precision";
}

size_t RowBytes(Precision p) {
  switch (p) {
    case Precision::kF32:
      return sizeof(float);
    case Precision::kF16:
      return sizeof(uint16_t);
    case Precision::kInt8:
      return sizeof(int8_t);
  }
  return 0;
}

void PlanTableSections(uint32_t table, uint64_t rows, uint32_t dim,
                       Precision precision,
                       std::vector<SectionPlan>* sections) {
  sections->push_back({table, kPartRows, rows * dim * RowBytes(precision),
                       rows, 0});
  if (precision == Precision::kInt8) {
    sections->push_back({table, kPartScales, rows * sizeof(uint16_t), rows,
                         0});
    sections->push_back({table, kPartZps, rows * sizeof(uint16_t), rows, 0});
  }
}

const SectionPlan* FindPlan(const std::vector<SectionPlan>& sections,
                            uint32_t table, uint32_t part) {
  for (const SectionPlan& s : sections) {
    if (s.table == table && s.part == part) return &s;
  }
  return nullptr;
}

// Encodes `rows` rows of one table into the planned sections of `blob`.
void EncodeTable(const std::vector<SectionPlan>& sections, uint32_t table,
                 const float* f32_rows, int64_t row_begin, uint64_t rows,
                 uint32_t dim, Precision precision, util::MmapFile* blob) {
  const SectionPlan* r = FindPlan(sections, table, kPartRows);
  const SectionPlan* s = FindPlan(sections, table, kPartScales);
  const SectionPlan* z = FindPlan(sections, table, kPartZps);
  char* base = blob->mutable_data();
  EncodeTableSlice(f32_rows, row_begin, rows, dim, precision,
                   base + r->offset, s != nullptr ? base + s->offset : nullptr,
                   z != nullptr ? base + z->offset : nullptr);
}

// One entity-range shard: rows [row_begin, row_begin + rows) of the
// entities / raw / (demand) tables.
std::shared_ptr<const util::MmapFile> BuildEntityShardBlob(
    const ScoringView& view, Precision precision, int64_t row_begin,
    uint64_t rows) {
  const uint32_t dim = static_cast<uint32_t>(view.dim);
  std::vector<SectionPlan> sections;
  PlanTableSections(kTabEntities, rows, dim, precision, &sections);
  PlanTableSections(kTabRaw, rows, dim, precision, &sections);
  const bool demand = view.demand_entities.present();
  if (demand) PlanTableSections(kTabDemand, rows, dim, precision, &sections);
  const uint64_t total = LayoutSections(&sections);
  std::unique_ptr<util::MmapFile> blob =
      AssembleBlob(/*kind=*/0, precision, dim, row_begin,
                   static_cast<int64_t>(rows), sections, total);
  EncodeTable(sections, kTabEntities, view.entities.f32, row_begin, rows, dim,
              precision, blob.get());
  EncodeTable(sections, kTabRaw, view.raw_entities.f32, row_begin, rows, dim,
              precision, blob.get());
  if (demand) {
    EncodeTable(sections, kTabDemand, view.demand_entities.f32, row_begin,
                rows, dim, precision, blob.get());
  }
  return blob;
}

// The policy blob's parameter blocks in order: lstm_c, lstm_e (input
// weights, hidden weights, bias), then the six linears, weight before
// bias. The binder walks the same order when it wires the policy view.
std::vector<std::pair<const float*, size_t>> PolicyBlocks(
    const PolicyParamsView& pv) {
  std::vector<std::pair<const float*, size_t>> blocks;
  for (const LstmView* l : {&pv.lstm_c, &pv.lstm_e}) {
    const size_t h4 = static_cast<size_t>(4) * l->hidden;
    blocks.emplace_back(l->w_input, h4 * l->in);
    blocks.emplace_back(l->w_hidden, h4 * l->hidden);
    blocks.emplace_back(l->bias, h4);
  }
  for (const LinearView* l : {&pv.mix_c, &pv.mix_e, &pv.head1_c, &pv.head2_c,
                              &pv.head1_e, &pv.head2_e}) {
    blocks.emplace_back(l->weight, static_cast<size_t>(l->in) * l->out);
    if (l->bias != nullptr) {
      blocks.emplace_back(l->bias, static_cast<size_t>(l->out));
    }
  }
  return blocks;
}

// The meta shard: relations + categories tables and the policy blob.
std::shared_ptr<const util::MmapFile> BuildMetaShardBlob(
    const ScoringView& view, const PolicyParamsView& pv,
    Precision precision) {
  const uint32_t dim = static_cast<uint32_t>(view.dim);
  const uint64_t rel_rows = static_cast<uint64_t>(kg::kNumRelations + 1);
  const uint64_t cat_rows = static_cast<uint64_t>(view.num_categories);
  const auto policy = PolicyBlocks(pv);
  size_t policy_floats = 0;
  for (const auto& [src, n] : policy) policy_floats += n;
  std::vector<SectionPlan> sections;
  PlanTableSections(kTabRelations, rel_rows, dim, precision, &sections);
  PlanTableSections(kTabCategories, cat_rows, dim, precision, &sections);
  sections.push_back(
      {kTabPolicy, kPartParams, policy_floats * sizeof(float), 0, 0});
  const uint64_t total = LayoutSections(&sections);
  std::unique_ptr<util::MmapFile> blob =
      AssembleBlob(/*kind=*/1, precision, dim, /*row_begin=*/0,
                   /*row_count=*/0, sections, total);
  EncodeTable(sections, kTabRelations, view.relations.f32, 0, rel_rows, dim,
              precision, blob.get());
  EncodeTable(sections, kTabCategories, view.categories.f32, 0, cat_rows, dim,
              precision, blob.get());
  char* dst = blob->mutable_data() +
              FindPlan(sections, kTabPolicy, kPartParams)->offset;
  for (const auto& [src, n] : policy) {
    std::memcpy(dst, src, n * sizeof(float));
    dst += n * sizeof(float);
  }
  return blob;
}

// Cheap reuse check for an existing shard file: parses the durability
// footer from the file tail (no full read) and compares its payload CRC —
// the delta writer's way of confirming "the bytes already on disk are the
// bytes I would write" without re-reading gigabytes.
bool TailCrcMatches(const std::string& path, uint32_t want_crc) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return false;
  const std::streamoff size = in.tellg();
  const std::streamoff tail_len = std::min<std::streamoff>(size, 160);
  if (tail_len <= 0) return false;
  std::string tail(static_cast<size_t>(tail_len), '\0');
  in.seekg(size - tail_len);
  in.read(tail.data(), tail_len);
  if (!in.good()) return false;
  const size_t pos = tail.rfind("cadrl_footer");
  if (pos == std::string::npos) return false;
  std::istringstream footer(tail.substr(pos));
  std::string tag;
  int version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  footer >> tag >> version >> payload_size >> crc;
  if (footer.fail()) return false;
  const uint64_t footer_begin =
      static_cast<uint64_t>(size - tail_len) + pos;
  return payload_size == footer_begin && crc == want_crc;
}

// --- Loader helpers -------------------------------------------------------

Status ValidateShardBlob(std::string_view payload, const std::string& what,
                         Precision precision, uint8_t kind, uint32_t dim,
                         int64_t row_begin, int64_t row_count,
                         std::vector<ShardSection>* sections) {
  if (payload.size() < sizeof(ShardHeader)) {
    return Status::Corruption(what + ": truncated shard header");
  }
  ShardHeader header;
  std::memcpy(&header, payload.data(), sizeof(header));
  if (std::memcmp(header.magic, kShardMagic, sizeof(header.magic)) != 0) {
    return Status::Corruption(what + ": bad shard magic");
  }
  if (header.version != kShardVersion) {
    return Status::Corruption(what + ": unsupported shard version");
  }
  const size_t table_bytes =
      sizeof(ShardHeader) +
      static_cast<size_t>(header.num_sections) * sizeof(ShardSection);
  if (payload.size() < table_bytes) {
    return Status::Corruption(what + ": truncated section table");
  }
  // Recompute the header CRC with the stored field zeroed.
  std::string head(payload.substr(0, table_bytes));
  ShardHeader zeroed = header;
  zeroed.header_crc = 0;
  std::memcpy(head.data(), &zeroed, sizeof(zeroed));
  if (Crc32(head) != header.header_crc) {
    return Status::Corruption(what + ": shard header checksum mismatch");
  }
  if (header.precision != static_cast<uint8_t>(precision) ||
      header.kind != kind || header.dim != dim ||
      header.row_begin != row_begin || header.row_count != row_count ||
      header.payload_bytes != payload.size()) {
    return Status::Corruption(what + ": shard header disagrees with manifest");
  }
  sections->resize(header.num_sections);
  for (size_t i = 0; i < sections->size(); ++i) {
    ShardSection& s = (*sections)[i];
    std::memcpy(&s, payload.data() + sizeof(ShardHeader) +
                        i * sizeof(ShardSection),
                sizeof(s));
    if (s.offset % kShardSectionAlign != 0 || s.offset < table_bytes ||
        s.size > payload.size() || s.offset > payload.size() - s.size) {
      return Status::Corruption(what + ": shard section out of bounds");
    }
  }
  return Status::OK();
}

const ShardSection* FindSection(const std::vector<ShardSection>& sections,
                                uint32_t table, uint32_t part) {
  for (const ShardSection& s : sections) {
    if (s.table == table && s.part == part) return &s;
  }
  return nullptr;
}

// Wires one flat sub-table RowTable from a shard blob's sections.
Status WireTable(std::string_view payload,
                 const std::vector<ShardSection>& sections,
                 const std::string& what, uint32_t table, Precision precision,
                 uint64_t rows, uint32_t dim, RowTable* out) {
  const ShardSection* r = FindSection(sections, table, kPartRows);
  if (r == nullptr || r->rows != rows ||
      r->size != rows * dim * RowBytes(precision)) {
    return Status::Corruption(what + ": missing or missized table section");
  }
  const char* base = payload.data();
  switch (precision) {
    case Precision::kF32:
      out->f32 = reinterpret_cast<const float*>(base + r->offset);
      break;
    case Precision::kF16:
      out->f16 = reinterpret_cast<const uint16_t*>(base + r->offset);
      break;
    case Precision::kInt8: {
      const ShardSection* s = FindSection(sections, table, kPartScales);
      const ShardSection* z = FindSection(sections, table, kPartZps);
      if (s == nullptr || z == nullptr ||
          s->size != rows * sizeof(uint16_t) ||
          z->size != rows * sizeof(uint16_t)) {
        return Status::Corruption(what + ": missing int8 scale/zp sections");
      }
      out->q8 = reinterpret_cast<const int8_t*>(base + r->offset);
      out->q8_scale = reinterpret_cast<const uint16_t*>(base + s->offset);
      out->q8_zp = reinterpret_cast<const uint16_t*>(base + z->offset);
      break;
    }
  }
  return Status::OK();
}

// One shard blob as the binder sees it: the payload bytes (durability
// footer excluded) and the backing that owns them — a file mapping, or the
// owned buffer CompiledModel::Build encoded into.
struct BlobRef {
  std::shared_ptr<const util::MmapFile> backing;
  std::string_view payload;
};

BlobRef OwnedBlob(std::shared_ptr<const util::MmapFile> blob) {
  BlobRef ref;
  ref.payload = Bytes(*blob);
  ref.backing = std::move(blob);
  return ref;
}

}  // namespace

bool ShardVerifyFromEnv() { return EnvFlag("CADRL_SHARD_VERIFY"); }

Status CompileToShardDir(const ScoringView& view,
                         const PolicyParamsView& policy, float score_scale,
                         const CompiledModelOptions& options,
                         const std::string& dir,
                         const ShardWriteOptions& write_options,
                         ShardWriteStats* stats) {
  CADRL_CHECK(view.precision == Precision::kF32)
      << "CompileToShardDir encodes from the live (f32) view";
  CADRL_CHECK(stats != nullptr);
  *stats = ShardWriteStats();
  const Precision prec = options.precision;
  const int64_t shard_rows = std::max<int64_t>(1, write_options.shard_rows);
  const int64_t ent_rows = view.num_entities;
  const int num_shards =
      static_cast<int>((ent_rows + shard_rows - 1) / shard_rows);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create shard dir " + dir + ": " +
                           ec.message());
  }

  // Best-effort parse of the previous manifest: the delta identity map.
  Manifest old;
  bool have_old = false;
  std::string old_payload;
  if (ReadFileVerified(dir + "/" + kShardManifestName, &old_payload).ok() &&
      ParseManifest(old_payload, &old).ok()) {
    have_old = true;
  }
  std::unordered_map<std::string, const ManifestShard*> old_by_file;
  if (have_old) {
    for (const ManifestShard& s : old.shards) old_by_file[s.file] = &s;
  }

  Manifest next = DescribeModel(view, policy, score_scale, prec, shard_rows);
  next.shards.resize(static_cast<size_t>(num_shards));

  const uint64_t new_generation = have_old ? old.generation + 1 : 1;
  std::vector<char> written(static_cast<size_t>(num_shards), 0);
  std::mutex stats_mu;

  // Encode + write the entity shards in parallel; each index owns its
  // manifest slot, so the only shared state is the byte counter.
  ThreadPool pool(ThreadPool::ClampThreads(write_options.threads));
  Status status = pool.ParallelFor(0, num_shards, 1, [&](int64_t i) {
    const int64_t row_begin = i * shard_rows;
    const uint64_t rows = static_cast<uint64_t>(
        std::min<int64_t>(shard_rows, ent_rows - row_begin));
    const std::shared_ptr<const util::MmapFile> encoded =
        BuildEntityShardBlob(view, prec, row_begin, rows);
    const std::string_view blob = Bytes(*encoded);
    ManifestShard& entry = next.shards[static_cast<size_t>(i)];
    entry.file = ShardFileName(static_cast<int>(i));
    entry.row_begin = row_begin;
    entry.row_count = static_cast<int64_t>(rows);
    entry.crc = Crc32(blob);
    const auto it = old_by_file.find(entry.file);
    if (it != old_by_file.end() && it->second->crc == entry.crc &&
        it->second->row_begin == entry.row_begin &&
        it->second->row_count == entry.row_count &&
        TailCrcMatches(dir + "/" + entry.file, entry.crc)) {
      entry.generation = it->second->generation;
      return Status::OK();
    }
    entry.generation = new_generation;
    written[static_cast<size_t>(i)] = 1;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats->bytes_written += blob.size();
    }
    return WriteFileAtomic(dir + "/" + entry.file, blob);
  });
  CADRL_RETURN_IF_ERROR(status);

  // The meta shard, with the same CRC-based delta skip.
  const std::shared_ptr<const util::MmapFile> meta_encoded =
      BuildMetaShardBlob(view, policy, prec);
  const std::string_view meta_blob = Bytes(*meta_encoded);
  next.meta.file = kShardMetaName;
  next.meta.crc = Crc32(meta_blob);
  if (have_old && old.meta.crc == next.meta.crc &&
      TailCrcMatches(dir + "/" + kShardMetaName, next.meta.crc)) {
    next.meta.generation = old.meta.generation;
  } else {
    next.meta.generation = new_generation;
    stats->meta_written = true;
    stats->bytes_written += meta_blob.size();
    CADRL_RETURN_IF_ERROR(
        WriteFileAtomic(dir + "/" + kShardMetaName, meta_blob));
  }

  stats->shards_total = num_shards;
  for (const char w : written) {
    if (w != 0) {
      ++stats->shards_written;
    } else {
      ++stats->shards_reused;
    }
  }

  // Publish: rewrite the manifest only when something changed. An
  // unchanged compile (same inputs, same options) is a no-op that keeps
  // the generation — reloaders can use the generation as a cheap "did
  // anything move" check.
  if (stats->shards_written == 0 && !stats->meta_written && have_old) {
    next.generation = old.generation;
    if (SerializeManifest(next) == old_payload) {
      stats->generation = old.generation;
      return Status::OK();
    }
  }
  next.generation = new_generation;
  stats->generation = new_generation;
  stats->manifest_written = true;
  return WriteFileAtomic(dir + "/" + kShardManifestName,
                         SerializeManifest(next));
}

// The one code path that turns shard blobs into a CompiledModel, whatever
// backs them; the only code with private access (friend) because it wires
// view pointers straight into the blobs.
class ShardBinder {
 public:
  // Binds the shard set `m` describes — shards[i] holds m.shards[i] — into
  // `model`: blob validation, the table views (flat when one entity shard
  // covers every row, segmented otherwise), the policy view and the
  // ArenaBytes accounting.
  static Status Bind(const Manifest& m, const std::vector<BlobRef>& shards,
                     const BlobRef& meta, CompiledModel* model) {
    const Precision prec = m.precision;
    const uint32_t dim = static_cast<uint32_t>(m.dim);
    const size_t num_shards = shards.size();
    model->backings_.resize(num_shards + 1);
    model->ent_segments_.resize(num_shards);
    model->raw_segments_.resize(num_shards);
    if (m.demand) model->demand_segments_.resize(num_shards);
    model->shard_infos_.resize(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      const ManifestShard& s = m.shards[i];
      const BlobRef& blob = shards[i];
      std::vector<ShardSection> sections;
      CADRL_RETURN_IF_ERROR(ValidateShardBlob(blob.payload, s.file, prec,
                                              /*kind=*/0, dim, s.row_begin,
                                              s.row_count, &sections));
      const uint64_t rows = static_cast<uint64_t>(s.row_count);
      CADRL_RETURN_IF_ERROR(WireTable(blob.payload, sections, s.file,
                                      kTabEntities, prec, rows, dim,
                                      &model->ent_segments_[i]));
      CADRL_RETURN_IF_ERROR(WireTable(blob.payload, sections, s.file, kTabRaw,
                                      prec, rows, dim,
                                      &model->raw_segments_[i]));
      if (m.demand) {
        CADRL_RETURN_IF_ERROR(WireTable(blob.payload, sections, s.file,
                                        kTabDemand, prec, rows, dim,
                                        &model->demand_segments_[i]));
      }
      model->backings_[i] = blob.backing;
      ShardSetInfo& info = model->shard_infos_[i];
      info.file = s.file;
      info.row_begin = s.row_begin;
      info.row_count = s.row_count;
      info.crc = s.crc;
      info.generation = s.generation;
    }

    // The meta shard: relations, categories, and the policy blob.
    std::vector<ShardSection> meta_sections;
    CADRL_RETURN_IF_ERROR(ValidateShardBlob(meta.payload, m.meta.file, prec,
                                            /*kind=*/1, dim, 0, 0,
                                            &meta_sections));
    model->backings_.back() = meta.backing;
    model->meta_crc_ = m.meta.crc;
    model->meta_generation_ = m.meta.generation;

    const uint64_t rel_rows = static_cast<uint64_t>(kg::kNumRelations + 1);
    ScoringView& sv = model->scoring_;
    sv.dim = m.dim;
    sv.mode = static_cast<ScoreMode>(m.mode);
    sv.ensemble_weight = m.ensemble_weight;
    sv.precision = prec;
    sv.num_entities = m.num_entities;
    sv.num_categories = m.num_categories;
    CADRL_RETURN_IF_ERROR(WireTable(meta.payload, meta_sections, m.meta.file,
                                    kTabRelations, prec, rel_rows, dim,
                                    &sv.relations));
    CADRL_RETURN_IF_ERROR(WireTable(
        meta.payload, meta_sections, m.meta.file, kTabCategories, prec,
        static_cast<uint64_t>(m.num_categories), dim, &sv.categories));
    // One shard binds flat, so ResolveRow stays the identity; more bind as
    // segments of shard_rows rows each.
    auto bind_entities = [&](const std::vector<RowTable>& segments,
                             RowTable* table) {
      if (segments.size() == 1) {
        *table = segments.front();
        return;
      }
      table->segments = segments.data();
      table->num_segments = static_cast<int>(segments.size());
      table->segment_rows = m.shard_rows;
    };
    bind_entities(model->ent_segments_, &sv.entities);
    bind_entities(model->raw_segments_, &sv.raw_entities);
    if (m.demand) bind_entities(model->demand_segments_, &sv.demand_entities);

    // Wire the policy view by walking the blob in the encoder's order
    // (PolicyBlocks) with the dims the manifest recorded.
    const ShardSection* psec =
        FindSection(meta_sections, kTabPolicy, kPartParams);
    if (psec == nullptr) {
      return Status::Corruption(m.meta.file + ": missing policy section");
    }
    const float* cursor =
        reinterpret_cast<const float*>(meta.payload.data() + psec->offset);
    const float* pend = cursor + psec->size / sizeof(float);
    PolicyParamsView& p = model->policy_;
    p.dim = m.policy_dim;
    p.hidden = m.policy_hidden;
    p.share_history = m.share_history;
    p.condition_on_category = m.condition_on_category;
    auto take = [&cursor, &pend](size_t n) -> const float* {
      if (n > static_cast<size_t>(pend - cursor)) return nullptr;
      const float* at = cursor;
      cursor += n;
      return at;
    };
    auto wire_lstm = [&](LstmView* l, int in) -> bool {
      l->in = in;
      l->hidden = m.policy_hidden;
      const size_t h4 = static_cast<size_t>(4) * l->hidden;
      l->w_input = take(h4 * l->in);
      l->w_hidden = take(h4 * l->hidden);
      l->bias = take(h4);
      return l->w_input != nullptr && l->w_hidden != nullptr &&
             l->bias != nullptr;
    };
    LinearView* plin[6] = {&p.mix_c,   &p.mix_e,   &p.head1_c,
                           &p.head2_c, &p.head1_e, &p.head2_e};
    bool policy_ok =
        wire_lstm(&p.lstm_c, m.lstm_c_in) && wire_lstm(&p.lstm_e, m.lstm_e_in);
    for (int i = 0; policy_ok && i < 6; ++i) {
      plin[i]->in = m.linears[i].in;
      plin[i]->out = m.linears[i].out;
      plin[i]->weight =
          take(static_cast<size_t>(plin[i]->in) * plin[i]->out);
      plin[i]->bias = m.linears[i].has_bias
                          ? take(static_cast<size_t>(plin[i]->out))
                          : nullptr;
      policy_ok = plin[i]->weight != nullptr &&
                  (!m.linears[i].has_bias || plin[i]->bias != nullptr);
    }
    if (!policy_ok || cursor != pend) {
      return Status::Corruption(m.meta.file +
                                ": policy section size disagrees with "
                                "manifest dims");
    }

    // Logical section footprint: the bytes of the row, scale and policy
    // sections, wherever the blobs live.
    size_t table_rows = static_cast<size_t>(m.num_entities) * 2 + rel_rows +
                        static_cast<size_t>(m.num_categories);
    if (m.demand) table_rows += static_cast<size_t>(m.num_entities);
    ArenaBytes& ab = model->arena_bytes_;
    ab.store_rows = table_rows * static_cast<size_t>(m.dim) * RowBytes(prec);
    if (prec == Precision::kInt8) {
      ab.store_scales = table_rows * 2 * sizeof(uint16_t);
    }
    ab.policy_params = psec->size;
    model->score_scale_ = m.score_scale;
    return Status::OK();
  }

  static Status Load(const std::string& dir, const ShardLoadOptions& options,
                     std::shared_ptr<const CompiledModel> previous,
                     std::shared_ptr<const CompiledModel>* out) {
    CADRL_CHECK(out != nullptr);
    std::string payload;
    CADRL_RETURN_IF_ERROR(
        ReadFileVerified(dir + "/" + kShardManifestName, &payload));
    Manifest m;
    CADRL_RETURN_IF_ERROR(
        ParseManifest(payload, &m).Annotate(dir + "/" + kShardManifestName));

    // Index the previous model's shard set for delta reuse: an unchanged
    // manifest entry means unchanged bytes, so the previous mapping (still
    // pinned by its shared_ptr even if the file was replaced since) serves
    // the new model too.
    std::unordered_map<std::string, size_t> prev_by_file;
    const bool have_prev = previous != nullptr && previous->mapped_;
    if (have_prev) {
      for (size_t i = 0; i < previous->shard_infos_.size(); ++i) {
        prev_by_file[previous->shard_infos_[i].file] = i;
      }
    }
    auto reusable = [&](const ManifestShard& s)
        -> std::shared_ptr<const util::MmapFile> {
      if (!have_prev) return nullptr;
      const auto it = prev_by_file.find(s.file);
      if (it == prev_by_file.end()) return nullptr;
      const ShardSetInfo& p = previous->shard_infos_[it->second];
      if (p.crc != s.crc || p.row_begin != s.row_begin ||
          p.row_count != s.row_count || p.generation != s.generation) {
        return nullptr;
      }
      return previous->backings_[it->second];
    };
    // Maps (or inherits) one shard file and checks its footer against the
    // manifest CRC.
    auto resolve = [&](const std::string& file, uint32_t crc,
                       std::shared_ptr<const util::MmapFile> inherited,
                       BlobRef* blob) -> Status {
      const bool remapped = inherited == nullptr;
      if (remapped) {
        CADRL_RETURN_IF_ERROR(
            util::MmapFile::Open(dir + "/" + file, &inherited));
      }
      uint32_t footer_crc = 0;
      CADRL_RETURN_IF_ERROR(
          VerifyFooterOnView(Bytes(*inherited),
                             remapped && options.verify_payload,
                             &blob->payload, &footer_crc)
              .Annotate(file));
      if (footer_crc != crc) {
        return Status::Corruption(file +
                                  ": shard CRC disagrees with manifest "
                                  "(stale or torn shard file)");
      }
      blob->backing = std::move(inherited);
      return Status::OK();
    };

    auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
    const size_t num_shards = m.shards.size();
    std::vector<BlobRef> blobs(num_shards);
    std::vector<bool> remapped(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      const ManifestShard& s = m.shards[i];
      std::shared_ptr<const util::MmapFile> inherited = reusable(s);
      remapped[i] = inherited == nullptr;
      CADRL_RETURN_IF_ERROR(
          resolve(s.file, s.crc, std::move(inherited), &blobs[i]));
    }
    BlobRef meta;
    const bool meta_reused = have_prev &&
                             previous->meta_crc_ == m.meta.crc &&
                             previous->meta_generation_ == m.meta.generation;
    CADRL_RETURN_IF_ERROR(resolve(
        m.meta.file, m.meta.crc,
        meta_reused ? previous->backings_.back() : nullptr, &meta));
    CADRL_RETURN_IF_ERROR(Bind(m, blobs, meta, model.get()));

    model->mapped_ = true;
    ShardSetStats& stats = model->shard_stats_;
    stats.shard_count = static_cast<int>(num_shards);
    stats.generation = m.generation;
    for (size_t i = 0; i < num_shards; ++i) {
      model->shard_infos_[i].remapped = remapped[i];
      if (remapped[i]) {
        ++stats.shards_remapped;
      } else {
        ++stats.shards_reused;
      }
    }
    for (const auto& backing : model->backings_) {
      stats.mapped_bytes += backing->size();
      if (!backing->mapped()) stats.fallback_buffered = true;
    }
    *out = std::move(model);
    return Status::OK();
  }
};

std::shared_ptr<const CompiledModel> CompiledModel::Build(
    const core::EmbeddingStore& store,
    const core::SharedPolicyNetworks& policy, float score_scale,
    const CompiledModelOptions& options) {
  const ScoringView view = store.View();
  CADRL_CHECK(view.precision == Precision::kF32)
      << "Build encodes from the live (f32) store";
  const PolicyParamsView pv = policy.ParamsView();
  const Precision prec = options.precision;
  // The blobs CompileToShardDir writes with shard_rows >= num_entities.
  const int64_t rows = view.num_entities;
  Manifest m = DescribeModel(view, pv, score_scale, prec,
                             std::max<int64_t>(1, rows));
  const BlobRef entities = OwnedBlob(
      BuildEntityShardBlob(view, prec, 0, static_cast<uint64_t>(rows)));
  const BlobRef meta = OwnedBlob(BuildMetaShardBlob(view, pv, prec));
  m.shards.push_back({"", 0, rows, Crc32(entities.payload), 0});
  m.meta.crc = Crc32(meta.payload);
  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  const Status status = ShardBinder::Bind(m, {entities}, meta, model.get());
  CADRL_CHECK(status.ok()) << "binding freshly encoded blobs: "
                           << status.ToString();
  return model;
}

Status LoadFromShardDir(const std::string& dir,
                        const ShardLoadOptions& options,
                        std::shared_ptr<const CompiledModel> previous,
                        std::shared_ptr<const CompiledModel>* out) {
  return ShardBinder::Load(dir, options, std::move(previous), out);
}

}  // namespace infer
}  // namespace cadrl
