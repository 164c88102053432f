#include "ingest/chunked_csv_reader.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "dataframe/predicate_index.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/string_util.h"
#include "util/task_scheduler.h"
#include "util/timer.h"

namespace faircap {

namespace {

constexpr size_t kNoRecord = static_cast<size_t>(-1);

// Index of the '\n' terminating the record that starts at `pos`, honoring
// RFC-4180 quoting (a newline inside quotes is field data, and escaped ""
// flips the quote state twice). kNoRecord when the record is incomplete.
size_t FindRecordEnd(std::string_view buf, size_t pos) {
  bool in_quotes = false;
  for (size_t i = pos; i < buf.size(); ++i) {
    const char c = buf[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n' && !in_quotes) {
      return i;
    }
  }
  return kNoRecord;
}

bool QuoteOpen(std::string_view record) {
  size_t quotes = 0;
  for (const char c : record) quotes += (c == '"');
  return (quotes % 2) != 0;
}

// The final record of an input that does not end in a newline. Its
// line-ending CR is stripped unless a quote is still open: then the CR is
// quoted field data of a malformed record, which the splitter rejects.
std::string_view TailRecord(std::string_view record) {
  if (!record.empty() && record.back() == '\r' && !QuoteOpen(record)) {
    record.remove_suffix(1);
  }
  return record;
}

constexpr uint64_t kSwarOnes = 0x0101010101010101ULL;
constexpr uint64_t kSwarHighs = 0x8080808080808080ULL;

// SWAR byte search: the high bit of each byte of the result is set iff
// that byte of `v` equals the byte replicated through `pattern8`.
__attribute__((always_inline)) inline uint64_t MatchBytes(uint64_t v,
                                                          uint64_t pattern8) {
  const uint64_t x = v ^ pattern8;
  return (x - kSwarOnes) & ~x & kSwarHighs;
}

// isspace over the ASCII set Trim uses: ' ' plus \t \n \v \f \r.
__attribute__((always_inline)) inline bool IsSpaceAscii(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Local always-inlined trim (the util::Trim call showed up in profiles at
// one call per cell). The `> ' '` pre-test exits in one compare for the
// overwhelmingly common untrimmed cell.
__attribute__((always_inline)) inline std::string_view TrimView(
    std::string_view s) {
  while (!s.empty()) {
    const unsigned char c = static_cast<unsigned char>(s.front());
    if (c > ' ' || !IsSpaceAscii(c)) break;
    s.remove_prefix(1);
  }
  while (!s.empty()) {
    const unsigned char c = static_cast<unsigned char>(s.back());
    if (c > ' ' || !IsSpaceAscii(c)) break;
    s.remove_suffix(1);
  }
  return s;
}

// Exact powers of ten: 10^k is representable exactly for k <= 22.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// strtod-compatible double parse; `s` must already be trimmed. Fast path:
// plain decimal with <= 15 significant digits and a decimal exponent
// within +-22 — there the classic mantissa-times-exact-power evaluation
// is a single IEEE operation, hence correctly rounded and bit-identical
// to strtod. Everything else (long mantissas, E notation, hex floats,
// inf/nan, leading '+') falls through to std::from_chars and then the
// shared ParseDouble, so the accepted language is strtod's.
bool FastParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  // The shared ParseDouble rejects cells that overflow its strtod buffer;
  // delegate so the same (absurdly long) inputs are rejected.
  if (s.size() >= 64) return ParseDouble(s, out);
  const char* p = s.data();
  const char* end = p + s.size();
  bool negative = false;
  if (*p == '-') {
    negative = true;
    ++p;
  }
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  bool seen_point = false;
  bool any_digit = false;
  bool fast_ok = p != end;
  for (; p != end; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      any_digit = true;
      if (digits >= 15) {
        fast_ok = false;
        break;
      }
      // Skip redundant leading zeros ("0.25" keeps digits low).
      if (mantissa != 0 || c != '0' || seen_point) {
        mantissa = mantissa * 10 + static_cast<uint64_t>(c - '0');
        if (mantissa != 0) ++digits;
      }
      if (seen_point) ++frac_digits;
    } else if (c == '.' && !seen_point) {
      seen_point = true;
    } else {
      fast_ok = false;  // exponent notation or junk: slow path decides
      break;
    }
  }
  if (fast_ok && any_digit && frac_digits <= 22) {
    const double value =
        static_cast<double>(mantissa) / kPow10[frac_digits];
    *out = negative ? -value : value;
    return true;
  }
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec == std::errc() && ptr == s.data() + s.size()) return true;
  return ParseDouble(s, out);
}

// First-4 + last-4 bytes packed into one integer. Together with the
// length this is *exact* for strings of <= 8 bytes (the two overlapping
// windows cover every byte), and a strong prefilter beyond (real-world
// category names share prefixes — "level_3" vs "level_7" — so the tail
// bytes discriminate where a prefix key cannot).
__attribute__((always_inline)) inline uint64_t PackKey(std::string_view s) {
  const size_t len = s.size();
  if (len >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, s.data(), 4);
    std::memcpy(&hi, s.data() + len - 4, 4);
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < len; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i])) << (8 * i);
  }
  return v;
}

// One column's storage under construction. The dictionary probe is the
// per-cell hot operation: for the small cardinalities mining actually
// uses, a linear scan over packed (length, prefix) keys beats any tree or
// hash (no allocation, no pointer chasing, one integer compare per
// entry). Columns that outgrow the linear window migrate to a
// transparent std::map.
struct ColumnBuilder {
  static constexpr size_t kLinearProbeMax = 32;

  explicit ColumnBuilder(AttrType type_in) : type(type_in) {}

  struct DictKey {
    uint64_t packed;
    uint32_t len;
  };
  static constexpr size_t kHashSlots = 128;  // power of two, > 2x entries

  AttrType type;
  std::vector<int32_t> codes;
  std::deque<std::string> dict_storage;  // deque: views stay stable
  std::vector<std::string_view> dict_views;  // by code
  std::vector<DictKey> packed_keys;          // by code
  /// Direct-mapped probe table: slot -> code + 1 (0 = empty). One
  /// multiplicative hash, one load, one key compare for the usual hit; a
  /// displaced entry (collision) falls back to the linear scan.
  std::array<int32_t, kHashSlots> hash_slots{};
  std::map<std::string, int32_t, std::less<>> big_index;
  bool use_big_index = false;
  std::vector<double> values;

  static __attribute__((always_inline)) inline size_t SlotOf(uint64_t packed,
                                                             uint32_t len) {
    return static_cast<size_t>(
               ((packed ^ len) * 0x2545F4914F6CDD1DULL) >> 57) &
           (kHashSlots - 1);
  }

  __attribute__((always_inline)) inline bool KeyMatches(
      size_t code, uint64_t packed, uint32_t len,
      std::string_view category) const {
    const DictKey& k = packed_keys[code];
    if (k.packed != packed || k.len != len) return false;
    // (packed, len) is exact up to 8 bytes; longer strings memcmp the
    // middle the two 4-byte windows did not cover.
    return len <= 8 || std::memcmp(dict_views[code].data() + 4,
                                   category.data() + 4, len - 8) == 0;
  }

  /// Probe-only lookup; -1 when `category` is not in the dictionary.
  /// Probed with the *raw* cell first (dictionary entries are trimmed, so
  /// a raw hit is always correct) — the common case then skips the trim
  /// and null-token work entirely.
  __attribute__((always_inline)) inline int32_t FindCategory(
      std::string_view category) const {
    if (!use_big_index) {
      const uint64_t key = PackKey(category);
      const uint32_t len = static_cast<uint32_t>(category.size());
      const int32_t slot = hash_slots[SlotOf(key, len)];
      if (slot != 0 &&
          KeyMatches(static_cast<size_t>(slot - 1), key, len, category)) {
        return slot - 1;
      }
      // Displaced by a hash collision (or absent): linear scan decides.
      const size_t n = packed_keys.size();
      for (size_t i = 0; i < n; ++i) {
        if (KeyMatches(i, key, len, category)) return static_cast<int32_t>(i);
      }
      return -1;
    }
    const auto it = big_index.find(category);
    return it != big_index.end() ? it->second : -1;
  }

  int32_t GetOrAddCategory(std::string_view category) {
    const int32_t found = FindCategory(category);
    if (found >= 0) return found;
    if (!use_big_index) {
      if (packed_keys.size() < kLinearProbeMax) return AddCategory(category);
      for (size_t i = 0; i < dict_views.size(); ++i) {
        big_index.emplace(std::string(dict_views[i]),
                          static_cast<int32_t>(i));
      }
      use_big_index = true;
    }
    const int32_t code = AddCategory(category);
    big_index.emplace(std::string(category), code);
    return code;
  }

  int32_t AddCategory(std::string_view category) {
    const int32_t code = static_cast<int32_t>(dict_views.size());
    dict_storage.emplace_back(category);
    dict_views.push_back(dict_storage.back());
    const DictKey key{PackKey(category),
                      static_cast<uint32_t>(category.size())};
    packed_keys.push_back(key);
    // First writer keeps the slot; displaced entries rely on the scan.
    int32_t& slot = hash_slots[SlotOf(key.packed, key.len)];
    if (slot == 0) slot = code + 1;
    return code;
  }

  std::vector<std::string> TakeDictionary() {
    return std::vector<std::string>(dict_storage.begin(), dict_storage.end());
  }

  void Reserve(size_t rows) {
    if (type == AttrType::kCategorical) {
      codes.reserve(rows);
    } else {
      values.reserve(rows);
    }
  }
};

// Builds the per-category equality masks from the (cache-hot) code
// vectors and installs them into the table's PredicateIndex. Shared by
// the sequential and parallel assembly paths. Columns past the index's
// batch-build cap stay on-demand.
void WarmStartIndex(const DataFrame& df, IngestStats* stats) {
  for (size_t attr = 0; attr < df.num_columns(); ++attr) {
    const Column& col = df.column(attr);
    if (col.type() != AttrType::kCategorical) continue;
    const size_t num_categories = col.num_categories();
    if (num_categories == 0 ||
        num_categories > PredicateIndex::kBatchBuildMaxCategories) {
      continue;
    }
    df.predicate_index().WarmStartCategoryMasks(
        df, attr, PredicateIndex::BuildCategoryMasks(df, attr));
    if (stats != nullptr) stats->warm_atom_masks += num_categories;
  }
}

// RFC-4180 field splitter for one complete record. Fields without
// quoting are zero-copy views into the record; only fields containing
// quotes are unescaped, into per-field scratch slots (a deque, so views
// into earlier slots stay valid while later fields are parsed).
class FieldSplitter {
 public:
  /// Splits `record`; false on an unterminated quote. The fields stay
  /// valid until the next call or until `record`'s bytes change.
  bool Split(std::string_view record, char delimiter) {
    fields_.clear();
    size_t scratch_used = 0;
    size_t field_start = 0;
    bool in_quotes = false;
    std::string* current = nullptr;  // non-null once the field hit a quote
    auto emit = [&](size_t end) {
      if (current != nullptr) {
        fields_.push_back(*current);
        ++scratch_used;
        current = nullptr;
      } else {
        fields_.push_back(record.substr(field_start, end - field_start));
      }
    };
    for (size_t i = 0; i < record.size(); ++i) {
      const char c = record[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < record.size() && record[i + 1] == '"') {
            current->push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          current->push_back(c);
        }
      } else if (c == '"') {
        if (current == nullptr) {
          if (scratch_.size() <= scratch_used) scratch_.emplace_back();
          current = &scratch_[scratch_used];
          current->assign(record.data() + field_start, i - field_start);
        }
        in_quotes = true;
      } else if (c == delimiter) {
        emit(i);
        field_start = i + 1;
      } else if (current != nullptr) {
        current->push_back(c);
      }
    }
    if (in_quotes) return false;
    emit(record.size());
    return true;
  }

  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  std::vector<std::string_view> fields_;
  std::deque<std::string> scratch_;
};

// Chunk-driven CSV parser: feed it complete records, then Finish().
class StreamParser {
 public:
  /// `skip_header` pre-marks the header as consumed — the parallel path
  /// hands every segment after the first a headerless slice of the file.
  StreamParser(const Schema& schema, const IngestOptions& options,
               bool skip_header = false)
      : schema_(schema), options_(options), null_token_(options.null_token) {
    header_done_ = skip_header;
    builders_.reserve(schema.num_attributes());
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      builders_.emplace_back(schema.attribute(i).type);
    }
  }

  /// Splits `record` into fields and appends one row (or checks the
  /// header on first call). `record` must be a complete logical record
  /// with the terminating newline and CR already stripped.
  Status ProcessRecord(std::string_view record) {
    ++record_no_;
    if (!splitter_.Split(record, options_.delimiter)) {
      return Status::IOError("unterminated quote at record " +
                             std::to_string(record_no_));
    }
    const std::vector<std::string_view>& fields = splitter_.fields();
    if (!header_done_) {
      header_done_ = true;
      if (fields.size() != schema_.num_attributes()) {
        return Status::InvalidArgument(
            "CSV header arity does not match schema");
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        if (Trim(fields[i]) != schema_.attribute(i).name) {
          return Status::InvalidArgument(
              "CSV header column '" + std::string(fields[i]) +
              "' does not match schema attribute '" +
              schema_.attribute(i).name + "'");
        }
      }
      return Status::OK();
    }
    if (fields.size() != schema_.num_attributes()) {
      return Status::InvalidArgument(
          "record " + std::to_string(record_no_) + " has " +
          std::to_string(fields.size()) + " cells, expected " +
          std::to_string(schema_.num_attributes()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (!AppendCell(i, fields[i])) return std::move(error_);
    }
    ++rows_;
    return Status::OK();
  }

  Status TakeError() { return std::move(error_); }

  /// Parses every complete row of `buf` and returns the offset of the
  /// first unconsumed byte (the start of an incomplete trailing record).
  ///
  /// One SWAR pass (8 bytes per step) finds delimiters, newlines, and
  /// quotes together; quote-free rows — the overwhelmingly common case —
  /// append cells straight into the column builders with zero copies and
  /// no per-record rescan. The scan is bounded by the buffer's last
  /// newline, so it never parses a partial row; a quote rolls the
  /// current row's cells back and re-drives that record through the
  /// escape-aware splitter (which also handles record separators inside
  /// quoted fields).
  Result<size_t> Consume(std::string_view buf) {
    const char* p = buf.data();
    const size_t size = buf.size();
    size_t pos = 0;
    while (!header_done_) {
      const size_t end = FindRecordEnd(buf, pos);
      if (end == kNoRecord) return pos;
      std::string_view record(p + pos, end - pos);
      if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
      FAIRCAP_RETURN_NOT_OK(ProcessRecord(record));
      pos = end + 1;
    }

    const void* last_nl = memrchr(p + pos, '\n', size - pos);
    if (last_nl == nullptr) return pos;
    const size_t scan_end =
        static_cast<size_t>(static_cast<const char*>(last_nl) - p) + 1;

    const size_t arity = schema_.num_attributes();
    const char delim = options_.delimiter;
    const uint64_t delim8 = kSwarOnes * static_cast<unsigned char>(delim);
    const uint64_t quote8 = kSwarOnes * static_cast<uint64_t>('"');
    const uint64_t nl8 = kSwarOnes * static_cast<uint64_t>('\n');

    size_t row_start = pos;  // current row's first byte
    size_t start = pos;      // current field's first byte
    size_t col = 0;
    size_t i = pos;

    enum class Act { kNext, kMoved, kNeedMore, kFail };

    // Handles the special byte at `idx`.
    auto handle = [&](size_t idx) -> Act {
      const char c = p[idx];
      if (c == delim) {
        if (col + 1 >= arity) {
          error_ = Status::InvalidArgument(
              "record " + std::to_string(record_no_ + 1) +
              " has more than the expected " + std::to_string(arity) +
              " cells");
          return Act::kFail;
        }
        if (!AppendCell(col, std::string_view(p + start, idx - start))) {
          return Act::kFail;
        }
        ++col;
        start = idx + 1;
        return Act::kNext;
      }
      if (c == '\n') {
        size_t cell_end = idx;
        if (cell_end > start && p[cell_end - 1] == '\r') --cell_end;
        if (col == 0 && cell_end == start) {
          // Blank line (or lone CR): skipped.
        } else {
          ++record_no_;
          if (col + 1 != arity) {
            error_ = Status::InvalidArgument(
                "record " + std::to_string(record_no_) + " has " +
                std::to_string(col + 1) + " cells, expected " +
                std::to_string(arity));
            return Act::kFail;
          }
          if (!AppendCell(col, std::string_view(p + start,
                                                cell_end - start))) {
            return Act::kFail;
          }
          ++rows_;
        }
        col = 0;
        start = idx + 1;
        row_start = idx + 1;
        return Act::kNext;
      }
      // Quote: undo this row's partial appends and re-drive the record
      // through the escape-aware splitter. Pre-quote cells re-parse to
      // identical values, so the dictionaries stay in first-appearance
      // order.
      for (size_t b = 0; b < col; ++b) {
        ColumnBuilder& builder = builders_[b];
        if (builder.type == AttrType::kCategorical) {
          builder.codes.pop_back();
        } else {
          builder.values.pop_back();
        }
      }
      col = 0;
      start = row_start;
      const size_t end = FindRecordEnd(buf, row_start);
      if (end == kNoRecord) {
        // Quoted record runs past the buffer; resume here next chunk.
        return Act::kNeedMore;
      }
      std::string_view record(p + row_start, end - row_start);
      if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
      if (!record.empty()) {
        const Status st = ProcessRecord(record);
        if (!st.ok()) {
          error_ = st;
          return Act::kFail;
        }
      }
      i = end + 1;
      start = i;
      row_start = i;
      return Act::kMoved;  // scan position jumped; restart the word loop
    };

    while (i < scan_end) {
      if (i + 8 <= scan_end) {
        uint64_t v;
        std::memcpy(&v, p + i, 8);
        uint64_t hits = MatchBytes(v, delim8) | MatchBytes(v, quote8) |
                        MatchBytes(v, nl8);
        bool advance = true;
        while (hits != 0) {
          const size_t idx =
              i + (static_cast<size_t>(__builtin_ctzll(hits)) >> 3);
          hits &= hits - 1;
          const Act act = handle(idx);
          if (act == Act::kNext) continue;
          if (act == Act::kFail) return TakeError();
          if (act == Act::kNeedMore) return row_start;
          advance = false;  // kMoved: i was repositioned past the record
          break;
        }
        if (advance) i += 8;
      } else {
        const char c = p[i];
        if (c == delim || c == '\n' || c == '"') {
          const Act act = handle(i);
          if (act == Act::kFail) return TakeError();
          if (act == Act::kNeedMore) return row_start;
          if (act == Act::kMoved) continue;  // i repositioned
        }
        ++i;
      }
    }
    return scan_end;
  }

  /// Pre-sizes the column vectors once the average record size is known.
  void ReserveRows(size_t rows) {
    for (ColumnBuilder& b : builders_) b.Reserve(rows);
  }

  size_t rows() const { return rows_; }
  bool header_done() const { return header_done_; }

  /// Segment-local column storage (the parallel path's merge input).
  std::vector<ColumnBuilder>& builders() { return builders_; }

  /// Drives a complete record-aligned segment through the parser: the
  /// SWAR scan over every newline-terminated record, then the tail
  /// record (last segment of a file without a trailing newline).
  Status ParseSegment(std::string_view segment) {
    FAIRCAP_ASSIGN_OR_RETURN(const size_t consumed, Consume(segment));
    if (consumed == segment.size()) return Status::OK();
    const std::string_view record = TailRecord(segment.substr(consumed));
    if (record.empty() && header_done_) return Status::OK();
    return ProcessRecord(record);
  }

  /// Assembles the DataFrame and (optionally) warm-starts its index.
  Result<DataFrame> Finish(IngestStats* stats) {
    if (!header_done_) {
      return Status::IOError("CSV input is empty (no header)");
    }
    std::vector<Column> columns;
    columns.reserve(builders_.size());
    for (ColumnBuilder& b : builders_) {
      if (b.type == AttrType::kCategorical) {
        // The builder minted every code from its own dictionary, so the
        // per-code range validation is skippable.
        FAIRCAP_ASSIGN_OR_RETURN(
            Column col,
            Column::FromCodes(std::move(b.codes), b.TakeDictionary(),
                              /*trusted=*/true));
        columns.push_back(std::move(col));
      } else {
        columns.push_back(Column::FromNumeric(std::move(b.values)));
      }
    }
    FAIRCAP_ASSIGN_OR_RETURN(DataFrame df, DataFrame::FromColumns(
                                               schema_, std::move(columns)));
    if (options_.warm_start_index) WarmStartIndex(df, stats);
    return df;
  }

 private:
  /// Parses one cell into its column. Returns false with error_ set on a
  /// malformed numeric cell (bool keeps Status construction off the hot
  /// path).
  __attribute__((always_inline)) inline bool AppendCell(
      size_t col, std::string_view cell) {
    ColumnBuilder& b = builders_[col];
    if (b.type == AttrType::kCategorical) {
      // Raw-cell probe first: dictionary entries are trimmed non-null
      // values, so a hit needs no trim or null-token check.
      const int32_t code = b.FindCategory(cell);
      if (code >= 0) {
        b.codes.push_back(code);
        return true;
      }
      const std::string_view trimmed = TrimView(cell);
      if (trimmed.empty() || trimmed == null_token_) {
        b.codes.push_back(Column::kNullCode);
      } else {
        b.codes.push_back(b.GetOrAddCategory(trimmed));
      }
      return true;
    }
    const std::string_view trimmed = TrimView(cell);
    if (trimmed.empty() || trimmed == null_token_) {
      b.values.push_back(std::nan(""));
      return true;
    }
    double v = 0.0;
    if (!FastParseDouble(trimmed, &v)) {
      error_ = Status::InvalidArgument(
          "cell '" + std::string(cell) + "' at record " +
          std::to_string(record_no_) + " is not numeric (attribute '" +
          schema_.attribute(col).name + "')");
      return false;
    }
    b.values.push_back(v);
    return true;
  }

  const Schema& schema_;
  const IngestOptions& options_;
  const std::string_view null_token_;  ///< hot-path view of the option
  std::vector<ColumnBuilder> builders_;
  FieldSplitter splitter_;
  Status error_;
  size_t record_no_ = 0;
  size_t rows_ = 0;
  bool header_done_ = false;
};

/// Flushes one completed ingest's totals into the global registry (the
/// run report's "ingest" section). Called once per ingest, off any hot
/// loop.
void PublishIngestStats(const IngestStats& local, size_t segments) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  r.GetCounter("ingest.runs").Increment();
  r.GetCounter("ingest.rows").Add(local.rows);
  r.GetCounter("ingest.bytes").Add(local.bytes);
  r.GetCounter("ingest.chunks").Add(local.chunks);
  r.GetCounter("ingest.segments").Add(segments);
}

/// `size_hint` (total input bytes, 0 = unknown) drives a one-shot reserve
/// of the column vectors once the average record size is known.
Result<DataFrame> StreamFrom(std::istream& in, const Schema& schema,
                             const IngestOptions& options,
                             IngestStats* stats, size_t size_hint) {
  const obs::TraceSpan span("ingest_stream");
  StopWatch watch;
  IngestStats local;
  StreamParser parser(schema, options);
  const size_t chunk_bytes = std::max<size_t>(options.chunk_bytes, 1);
  // Reusable read buffer: each chunk is read after the carried-over
  // partial record; the (small) unconsumed tail is memmoved to the front.
  // No per-chunk string append, no multi-megabyte copies.
  std::vector<char> buf(2 * chunk_bytes);
  size_t carry = 0;

  while (in) {
    if (buf.size() < carry + chunk_bytes) {
      buf.resize(carry + chunk_bytes);  // a quoted record spans chunks
    }
    in.read(buf.data() + carry, static_cast<std::streamsize>(chunk_bytes));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    local.bytes += got;
    ++local.chunks;
    const size_t total = carry + got;
    FAIRCAP_ASSIGN_OR_RETURN(
        const size_t consumed,
        parser.Consume(std::string_view(buf.data(), total)));
    carry = total - consumed;
    if (consumed != 0 && carry != 0) {
      std::memmove(buf.data(), buf.data() + consumed, carry);
    }
    if (size_hint != 0 && parser.rows() > 0) {
      // One-shot reserve from the observed bytes-per-row, with 5% slack
      // so a slightly long sample never forces a full-table realloc.
      const size_t done = local.bytes - carry;
      if (done > 0) {
        parser.ReserveRows(1 + parser.rows() * size_hint / done * 21 / 20);
      }
      size_hint = 0;
    }
  }
  if (carry != 0) {
    // Final record without a trailing newline (or a dangling quote, which
    // ProcessRecord rejects).
    const std::string_view record =
        TailRecord(std::string_view(buf.data(), carry));
    if (!(record.empty() && parser.header_done())) {
      FAIRCAP_RETURN_NOT_OK(parser.ProcessRecord(record));
    }
  }

  local.rows = parser.rows();
  FAIRCAP_ASSIGN_OR_RETURN(DataFrame df, parser.Finish(&local));
  local.seconds = watch.ElapsedSeconds();
  PublishIngestStats(local, /*segments=*/0);
  if (stats != nullptr) *stats = local;
  return df;
}

// ---------------------------------------------------------------------------
// Parallel (segmented) ingestion: record-aligned split, per-segment SWAR
// parse into segment-local columns, ordered concat with dictionary merge.

/// Record-aligned segment start offsets over `content` (offset 0 always
/// included; segment i spans [starts[i], starts[i+1]), the last one runs
/// to the end). Boundaries sit immediately past a record-terminating
/// '\n' — one preceded by an even number of quotes since the start of
/// the input — so a newline inside a quoted field never splits a record.
/// Segments target `target_bytes` each, capped at `max_segments`.
std::vector<size_t> SegmentStarts(std::string_view content,
                                  size_t target_bytes, size_t max_segments) {
  std::vector<size_t> starts{0};
  if (max_segments <= 1 || content.size() <= target_bytes) return starts;
  const size_t segments = std::min(
      max_segments, (content.size() + target_bytes - 1) / target_bytes);
  const uint64_t quote8 = kSwarOnes * static_cast<uint64_t>('"');
  const char* p = content.data();
  bool parity = false;  // quote parity of [0, cursor)
  size_t cursor = 0;
  for (size_t b = 1; b < segments; ++b) {
    const size_t naive = content.size() * b / segments;
    if (naive <= cursor) continue;
    // Advance the running parity to the naive split point (SWAR quote
    // count, 8 bytes per step — a popcount pass, far cheaper than the
    // parse it unblocks).
    size_t quotes = 0;
    size_t i = cursor;
    for (; i + 8 <= naive; i += 8) {
      uint64_t v;
      std::memcpy(&v, p + i, 8);
      quotes +=
          static_cast<size_t>(__builtin_popcountll(MatchBytes(v, quote8)));
    }
    for (; i < naive; ++i) quotes += (p[i] == '"');
    if (quotes % 2 != 0) parity = !parity;
    cursor = naive;
    // First record-terminating newline at or after the split point.
    size_t j = cursor;
    bool par = parity;
    for (; j < content.size(); ++j) {
      const char c = p[j];
      if (c == '"') {
        par = !par;
      } else if (c == '\n' && !par) {
        break;
      }
    }
    if (j >= content.size()) break;  // no further record boundary
    parity = par;
    cursor = j + 1;
    if (cursor >= content.size()) break;
    starts.push_back(cursor);
  }
  return starts;
}

/// One parallel ingest pass over in-memory content. Bit-for-bit the
/// sequential result: segments are record-aligned, segment columns
/// concatenate in file order, and dictionaries merge in first-appearance
/// order — which IS the sequential code-assignment order, because every
/// row of segment s precedes every row of segment s+1.
Result<DataFrame> ParseSegmented(std::string_view content,
                                 const Schema& schema,
                                 const IngestOptions& options,
                                 IngestStats* stats,
                                 TaskScheduler* scheduler) {
  const obs::TraceSpan span("ingest_segmented");
  StopWatch watch;
  IngestStats local;
  const size_t target = std::max<size_t>(options.chunk_bytes, 1);
  const size_t fanout =
      scheduler != nullptr ? scheduler->num_threads() * 4 : 1;
  const std::vector<size_t> starts = SegmentStarts(content, target, fanout);
  const size_t num_segments = starts.size();

  std::vector<std::unique_ptr<StreamParser>> parsers;
  parsers.reserve(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    parsers.push_back(std::make_unique<StreamParser>(
        schema, options, /*skip_header=*/s != 0));
  }
  std::vector<Status> segment_status(num_segments);
  TaskGroup tasks(scheduler);
  tasks.ParallelFor(num_segments, [&](size_t s) {
    const obs::TraceSpan segment_span("segment", static_cast<int64_t>(s));
    const size_t end = s + 1 < num_segments ? starts[s + 1] : content.size();
    segment_status[s] =
        parsers[s]->ParseSegment(content.substr(starts[s], end - starts[s]));
  });
  for (const Status& st : segment_status) {
    FAIRCAP_RETURN_NOT_OK(st);
  }
  if (!parsers[0]->header_done()) {
    return Status::IOError("CSV input is empty (no header)");
  }

  size_t total_rows = 0;
  for (const auto& parser : parsers) total_rows += parser->rows();
  std::vector<Column> columns;
  columns.reserve(schema.num_attributes());
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (schema.attribute(c).type == AttrType::kCategorical) {
      std::vector<std::string> dict;
      // Transparent comparator: segment dictionary views probe without a
      // per-lookup string copy. Keyed by owned strings so `dict`'s
      // reallocation cannot invalidate anything.
      std::map<std::string, int32_t, std::less<>> index;
      std::vector<int32_t> codes;
      codes.reserve(total_rows);
      for (const auto& parser : parsers) {
        ColumnBuilder& b = parser->builders()[c];
        std::vector<int32_t> remap(b.dict_views.size());
        for (size_t k = 0; k < b.dict_views.size(); ++k) {
          const std::string_view name = b.dict_views[k];
          const auto it = index.find(name);
          if (it != index.end()) {
            remap[k] = it->second;
          } else {
            const int32_t code = static_cast<int32_t>(dict.size());
            dict.emplace_back(name);
            index.emplace(dict.back(), code);
            remap[k] = code;
          }
        }
        for (const int32_t code : b.codes) {
          codes.push_back(code < 0 ? Column::kNullCode
                                   : remap[static_cast<size_t>(code)]);
        }
      }
      FAIRCAP_ASSIGN_OR_RETURN(
          Column col, Column::FromCodes(std::move(codes), std::move(dict),
                                        /*trusted=*/true));
      columns.push_back(std::move(col));
    } else {
      std::vector<double> values;
      values.reserve(total_rows);
      for (const auto& parser : parsers) {
        ColumnBuilder& b = parser->builders()[c];
        values.insert(values.end(), b.values.begin(), b.values.end());
      }
      columns.push_back(Column::FromNumeric(std::move(values)));
    }
  }
  FAIRCAP_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::FromColumns(schema, std::move(columns)));
  if (options.warm_start_index) WarmStartIndex(df, &local);

  local.rows = total_rows;
  local.bytes = content.size();
  local.chunks = num_segments;
  local.parse_threads = scheduler != nullptr ? scheduler->num_threads() : 1;
  local.seconds = watch.ElapsedSeconds();
  PublishIngestStats(local, num_segments);
  if (stats != nullptr) *stats = local;
  return df;
}

/// Resolved parse-thread count for the options (1 = sequential reader).
size_t ResolveParseThreads(const IngestOptions& options) {
  if (options.scheduler != nullptr) {
    return std::max<size_t>(1, options.scheduler->num_threads());
  }
  if (options.num_threads != 0) return options.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Parallel entry point over in-memory content; on a parse error the
/// content is re-driven through the sequential reader so error messages
/// (record numbers) are exactly the sequential ones.
Result<DataFrame> IngestSegmented(std::string_view content,
                                  const Schema& schema,
                                  const IngestOptions& options,
                                  IngestStats* stats, size_t workers) {
  std::unique_ptr<TaskScheduler> owned;
  TaskScheduler* scheduler = options.scheduler;
  if (scheduler == nullptr && workers > 1) {
    owned = std::make_unique<TaskScheduler>(workers);
    scheduler = owned.get();
  }
  Result<DataFrame> df =
      ParseSegmented(content, schema, options, stats, scheduler);
  if (df.ok()) return df;
  std::istringstream in{std::string(content)};
  return StreamFrom(in, schema, options, stats, content.size());
}

// Schema inference over the parser's own record framing (FindRecordEnd,
// TailRecord), field splitting, null handling and number parsing, so a
// column is inferred numeric exactly when StreamParser can load every
// cell of it as a number.
class SchemaInferrer {
 public:
  explicit SchemaInferrer(const IngestOptions& options) : options_(options) {}

  /// Takes one complete record (line-ending CR already stripped): the
  /// header first, then the body. Blank body records are skipped.
  Status ProcessRecord(std::string_view record) {
    if (header_done_ && record.empty()) return Status::OK();
    ++record_no_;
    if (!splitter_.Split(record, options_.delimiter)) {
      return Status::IOError("unterminated quote at record " +
                             std::to_string(record_no_));
    }
    const std::vector<std::string_view>& fields = splitter_.fields();
    if (!header_done_) {
      header_done_ = true;
      for (const std::string_view name : fields) {
        names_.emplace_back(Trim(name));
      }
      numeric_.assign(fields.size(), true);
      saw_value_.assign(fields.size(), false);
      return Status::OK();
    }
    if (fields.size() != names_.size()) {
      return Status::InvalidArgument(
          "record " + std::to_string(record_no_) + " has " +
          std::to_string(fields.size()) + " cells, expected " +
          std::to_string(names_.size()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      const std::string_view cell = TrimView(fields[i]);
      if (cell.empty() || cell == options_.null_token) continue;
      saw_value_[i] = true;
      double value = 0.0;
      if (numeric_[i] && !FastParseDouble(cell, &value)) numeric_[i] = false;
    }
    return Status::OK();
  }

  Result<Schema> Finish() const {
    if (!header_done_) {
      return Status::IOError("CSV input is empty (no header)");
    }
    std::vector<AttributeSpec> attrs(names_.size());
    for (size_t i = 0; i < names_.size(); ++i) {
      attrs[i].name = names_[i];
      // Columns that never produced a value stay categorical.
      attrs[i].type = saw_value_[i] && numeric_[i] ? AttrType::kNumeric
                                                   : AttrType::kCategorical;
      attrs[i].role = AttrRole::kImmutable;
    }
    return Schema::Create(std::move(attrs));
  }

 private:
  const IngestOptions& options_;
  FieldSplitter splitter_;
  std::vector<std::string> names_;
  std::vector<bool> numeric_;
  std::vector<bool> saw_value_;
  size_t record_no_ = 0;
  bool header_done_ = false;
};

/// One inference pass over `in`, read in chunk_bytes windows.
Result<Schema> InferSchema(std::istream& in, const IngestOptions& options) {
  SchemaInferrer inferrer(options);
  const size_t chunk_bytes = std::max<size_t>(options.chunk_bytes, 1);
  std::vector<char> chunk(chunk_bytes);
  std::string buf;
  size_t pos = 0;  // first unconsumed byte of buf
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk_bytes));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    buf.erase(0, pos);
    pos = 0;
    buf.append(chunk.data(), got);
    for (size_t end = FindRecordEnd(buf, pos); end != kNoRecord;
         end = FindRecordEnd(buf, pos)) {
      std::string_view record(buf.data() + pos, end - pos);
      if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
      FAIRCAP_RETURN_NOT_OK(inferrer.ProcessRecord(record));
      pos = end + 1;
    }
  }
  if (pos < buf.size()) {
    FAIRCAP_RETURN_NOT_OK(inferrer.ProcessRecord(
        TailRecord(std::string_view(buf).substr(pos))));
  }
  return inferrer.Finish();
}

}  // namespace

Result<DataFrame> StreamCsv(const std::string& path, const Schema& schema,
                            const IngestOptions& options,
                            IngestStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  const size_t workers = ResolveParseThreads(options);
  if (workers > 1 && size > 0) {
    // Parallel mode buffers the file (the segment parsers need random
    // access); the sequential reader below streams in bounded windows.
    std::string content(static_cast<size_t>(size), '\0');
    in.read(content.data(), size);
    content.resize(static_cast<size_t>(in.gcount()));
    return IngestSegmented(content, schema, options, stats, workers);
  }
  return StreamFrom(in, schema, options, stats,
                    size > 0 ? static_cast<size_t>(size) : 0);
}

Result<DataFrame> StreamCsvInferSchema(const std::string& path,
                                       const IngestOptions& options,
                                       IngestStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  FAIRCAP_ASSIGN_OR_RETURN(const Schema schema, InferSchema(in, options));
  return StreamCsv(path, schema, options, stats);
}

Result<DataFrame> StreamCsvFromString(const std::string& content,
                                      const Schema& schema,
                                      const IngestOptions& options,
                                      IngestStats* stats) {
  const size_t workers = ResolveParseThreads(options);
  if (workers > 1) {
    return IngestSegmented(content, schema, options, stats, workers);
  }
  std::istringstream in(content);
  return StreamFrom(in, schema, options, stats, content.size());
}

}  // namespace faircap
