// Internal: portable kernel bodies shared by the per-ISA translation
// units. The scalar tier uses these as THE implementation; the AVX2 and
// AVX-512 tiers use them for word tails and for the whole accumulation
// walk, supplying only the integer path's vector dense-word lane
// preparation.
//
// The accumulation core is the determinism anchor of the whole layer. For
// real-valued outcomes it performs every floating-point add in ascending
// row order with the same associations as the original CateStatsEngine
// scalar loop — every word is staged into a small buffer before its adds,
// but each slot's add sequence is always the ascending-row scalar
// sequence, so a vectorized scatter-add (which would race with itself and
// reassociate) is never used. For integer-valued outcomes the int64 fast
// path below is exact, so reassociation is free and the dense-word loop
// runs branchless at full width; the safe_rows guard keeps every partial
// below 2^53 so the conversion to double reproduces the legacy FP result
// bit for bit.

#ifndef FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_
#define FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

namespace faircap {
namespace simd {
namespace core {

inline size_t ScalarPopcount(const uint64_t* words, size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(words[i]));
  }
  return n;
}

inline size_t ScalarAndCount(const uint64_t* a, const uint64_t* b,
                             size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return n;
}

inline size_t ScalarAndNotCount(const uint64_t* a, const uint64_t* b,
                                size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return n;
}

inline void ScalarAndInplace(uint64_t* a, const uint64_t* b,
                             size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] &= b[i];
}

inline void ScalarOrInplace(uint64_t* a, const uint64_t* b,
                            size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] |= b[i];
}

inline void ScalarAndNotInplace(uint64_t* a, const uint64_t* b,
                                size_t num_words) {
  for (size_t i = 0; i < num_words; ++i) a[i] &= ~b[i];
}

// One mask word (up to 64 rows) of the categorical compare scans.
inline uint64_t CodesEqWord(const int32_t* codes, size_t rows, int32_t code) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(codes[i] == code) << i;
  }
  return word;
}

inline uint64_t CodesNeWord(const int32_t* codes, size_t rows,
                            int32_t null_code, int32_t code) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(codes[i] != null_code && codes[i] != code)
            << i;
  }
  return word;
}

inline void ScalarMaskCodesEq(const int32_t* codes, size_t n, int32_t code,
                              uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = CodesEqWord(codes + begin, rows, code);
  }
}

inline void ScalarMaskCodesNe(const int32_t* codes, size_t n,
                              int32_t null_code, int32_t code, uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = CodesNeWord(codes + begin, rows, null_code, code);
  }
}

// NaN never matches (null convention), not even under kNe where plain
// IEEE != would admit it.
inline bool NumericMatch(double v, Cmp op, double rhs) {
  if (std::isnan(v)) return false;
  switch (op) {
    case Cmp::kEq: return v == rhs;
    case Cmp::kNe: return v != rhs;
    case Cmp::kLt: return v < rhs;
    case Cmp::kLe: return v <= rhs;
    case Cmp::kGt: return v > rhs;
    case Cmp::kGe: return v >= rhs;
  }
  return false;
}

inline uint64_t NumericCmpWord(const double* values, size_t rows, Cmp op,
                               double rhs) {
  uint64_t word = 0;
  for (size_t i = 0; i < rows; ++i) {
    word |= static_cast<uint64_t>(NumericMatch(values[i], op, rhs)) << i;
  }
  return word;
}

inline void ScalarMaskNumericCmp(const double* values, size_t n, Cmp op,
                                 double rhs, uint64_t* out) {
  for (size_t begin = 0; begin < n; begin += 64) {
    const size_t rows = n - begin < 64 ? n - begin : 64;
    out[begin / 64] = NumericCmpWord(values + begin, rows, op, rhs);
  }
}

// ---------------------------------------------------------------------
// Accumulation core.
//
// One walk over the group bitmap serves every treatment in
// args.treatments (they share the row -> cell map). Each populated word's
// rows — cell, outcome, protected bit — are extracted once, then replayed
// into each treatment's sinks with that treatment's arm bit. Replay is
// treatment-major within a word, so every sink still receives its adds in
// ascending row order: the batch changes which sinks a walk feeds, never
// the add sequence any one slot sees. The kernels keep no integer
// counters; the caller derives rows / n_treated / n_control from the slot
// counts n[] after the pass.

/// Row-major lanes of one dense (all-ones) group word for one treatment:
/// idx[b] = 2*cell + arm for row base+b (garbage where excluded), valid =
/// mask of rows whose cell is >= 0.
struct DenseLanes {
  int32_t idx[64];
  uint64_t valid;
};

/// Dense-word lane preparation for tiers without a vector path: every
/// populated word takes the staged path.
struct NoDenseLanes {
  static constexpr bool kDense = false;
  static void Prepare(const int32_t*, uint64_t, DenseLanes*) {}
};

/// One included row of a word, staged for replay: 2*cell (the arm bit is
/// added per treatment), the row's offset in its word, its protected bit
/// and its outcome — 16 bytes for both outcome types.
template <typename Y>
struct StagedRow {
  int32_t cell2;
  uint8_t off;
  uint8_t prot;
  Y y;
};

/// Extracts a word's group rows into `out` (64 entries) in ascending row
/// order. A row with an excluded cell (-1) is written but not counted, so
/// the next row overwrites it and the loop carries no validity branch.
/// Returns the number of included rows.
template <bool kSplit, typename Y>
inline size_t StageWord(uint64_t bits, size_t base, const int32_t* cell_of_row,
                        const Y* y, uint64_t pword, StagedRow<Y>* out) {
  size_t count = 0;
  while (bits != 0) {
    const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
    bits &= bits - 1;
    const int32_t c = cell_of_row[base + b];
    StagedRow<Y>& row = out[count];
    row.cell2 = c * 2;
    row.off = static_cast<uint8_t>(b);
    row.prot = kSplit ? static_cast<uint8_t>((pword >> b) & 1) : 0;
    row.y = y[base + b];
    count += static_cast<size_t>(c >= 0);
  }
  return count;
}

/// The numeric-moment adds of one row into one sink, in the scalar loop's
/// order.
inline void AddMoments(const CateAccumArgs& args, const CateSink& sink,
                       size_t idx, size_t r, double y) {
  const size_t m = args.num_numeric;
  const size_t zbase = idx * m;
  const size_t zzbase = idx * (m * (m + 1) / 2);
  for (size_t j = 0, t = 0; j < m; ++j) {
    const double zj = args.zcols[j][r];
    sink.zsum[zbase + j] += zj;
    sink.zysum[zbase + j] += zj * y;
    for (size_t k = j; k < m; ++k, ++t) {
      sink.zzsum[zzbase + t] += zj * args.zcols[k][r];
    }
  }
}

/// Replays a staged word into one treatment's FP sinks. The split picks
/// the protected or non-protected sink by indexing, not by branching.
template <bool kSplit, bool kMoments>
inline void ReplayFp(const CateAccumArgs& args, const CateTreatmentSinks& t,
                     uint64_t tword, const StagedRow<double>* rows,
                     size_t count, size_t base) {
  const CateSink* const sub[2] = {&t.nonprot, &t.prot};
  for (size_t i = 0; i < count; ++i) {
    const StagedRow<double>& row = rows[i];
    const size_t idx =
        static_cast<size_t>(row.cell2) + ((tword >> row.off) & 1);
    const double y = row.y;
    ++t.overall.n[idx];
    t.overall.sy[idx] += y;
    t.overall.syy[idx] += y * y;
    if (kSplit) {
      const CateSink& s = *sub[row.prot];
      ++s.n[idx];
      s.sy[idx] += y;
      s.syy[idx] += y * y;
    }
    if (kMoments) {
      const size_t r = base + row.off;
      AddMoments(args, t.overall, idx, r, y);
      if (kSplit) AddMoments(args, *sub[row.prot], idx, r, y);
    }
  }
}

/// Integer-path replay: int64 adds, otherwise ReplayFp's shape.
template <bool kSplit>
inline void ReplayInt(const CateTreatmentSinks& t, uint64_t tword,
                      const StagedRow<int64_t>* rows, size_t count) {
  const CateSink* const sub[2] = {&t.nonprot, &t.prot};
  for (size_t i = 0; i < count; ++i) {
    const StagedRow<int64_t>& row = rows[i];
    const size_t idx =
        static_cast<size_t>(row.cell2) + ((tword >> row.off) & 1);
    const int64_t y = row.y;
    const int64_t yy = y * y;
    ++t.overall.n[idx];
    t.overall.isy[idx] += y;
    t.overall.isyy[idx] += yy;
    if (kSplit) {
      const CateSink& s = *sub[row.prot];
      ++s.n[idx];
      s.isy[idx] += y;
      s.isyy[idx] += yy;
    }
  }
}

/// Folds one sink's int64 staging arrays into its FP arrays. Every staged
/// total is below 2^53 (safe_rows guard), so the conversion is exact and
/// the result equals what the ascending-row FP adds would have produced.
/// Scratch slots past num_slots are dropped, not flushed.
inline void FlushIntSinkToFp(const CateSink& sink, size_t num_slots) {
  for (size_t i = 0; i < num_slots; ++i) {
    sink.sy[i] += static_cast<double>(sink.isy[i]);
    sink.syy[i] += static_cast<double>(sink.isyy[i]);
  }
}

/// The branchless dense-word body of the integer path for one treatment:
/// excluded rows are steered into the scratch slot at num_slots instead
/// of being branched around; their y is 0 only by accident, so scratch is
/// write-only and never read.
template <bool kSplit>
inline void IntDenseWord(const CateAccumArgs& args,
                         const CateTreatmentSinks& t, size_t base,
                         const DenseLanes& lanes, uint64_t pword) {
  uint32_t* sub_n[2] = {t.nonprot.n, t.prot.n};
  int64_t* sub_isy[2] = {t.nonprot.isy, t.prot.isy};
  int64_t* sub_isyy[2] = {t.nonprot.isyy, t.prot.isyy};
  const int64_t* y64 = args.outcome_i64 + base;
  const int32_t scratch = static_cast<int32_t>(args.num_slots);
  for (unsigned b = 0; b < 64; ++b) {
    const int32_t raw = lanes.idx[b];
    const size_t idx = static_cast<size_t>(raw >= 0 ? raw : scratch);
    const int64_t y = y64[b];
    const int64_t yy = y * y;
    ++t.overall.n[idx];
    t.overall.isy[idx] += y;
    t.overall.isyy[idx] += yy;
    if (kSplit) {
      const size_t pb = (pword >> b) & 1;
      ++sub_n[pb][idx];
      sub_isy[pb][idx] += y;
      sub_isyy[pb][idx] += yy;
    }
  }
}

/// The FP walk over words [word_begin, args.word_end), specialized on the
/// protected split and the moments block. Every populated word, all-ones
/// ones included, is staged once and replayed into each treatment: at one
/// treatment the replay is no slower than a per-treatment vector lane
/// preparation, and at K treatments it stages once instead of K times.
/// All-ones words still count as dense in the word mix. `Lanes` is unused
/// here but keeps each tier's instantiation a distinct symbol: the tiers
/// compile this header under different -march flags, and one shared
/// inline definition would let the linker pick any tier's code for all.
template <bool kSplit, bool kMoments, typename Lanes>
inline void WalkFp(const CateAccumArgs& args, size_t word_begin) {
  const uint64_t* gw = args.group_words;
  const uint64_t* pw = args.protected_words;
  const CateTreatmentSinks* treatments = args.treatments;
  const size_t num_treatments = args.num_treatments;
  StagedRow<double> stage[64];
  for (size_t w = word_begin; w < args.word_end; ++w) {
    const uint64_t bits = gw[w];
    if (bits == 0) continue;
    size_t* mix = bits == ~0ULL ? args.dense_words : args.sparse_words;
    if (mix != nullptr) ++*mix;
    const uint64_t pword = kSplit ? pw[w] : 0;
    const size_t base = w * 64;
    const size_t count = StageWord<kSplit>(bits, base, args.cell_of_row,
                                           args.outcome, pword, stage);
    for (size_t k = 0; k < num_treatments; ++k) {
      const CateTreatmentSinks& t = treatments[k];
      ReplayFp<kSplit, kMoments>(args, t, t.treated_words[w], stage, count,
                                 base);
    }
  }
}

/// The integer walk: WalkFp's shape with int64 adds, plus the per-word
/// safe_rows guard. The guard counts rows walked, which is the same for
/// every treatment, so all of them trip at the same word. On a trip the
/// integer partials are flushed exactly into the FP arrays and the
/// remaining words run through WalkFp; returns false in that case (FP
/// arrays authoritative), true when the whole range stayed integer.
template <bool kSplit, typename Lanes>
inline bool WalkInt(const CateAccumArgs& args) {
  const uint64_t* gw = args.group_words;
  const uint64_t* pw = args.protected_words;
  const CateTreatmentSinks* treatments = args.treatments;
  const size_t num_treatments = args.num_treatments;
  StagedRow<int64_t> stage[64];
  DenseLanes lanes;
  size_t rows = 0;
  for (size_t w = args.word_begin; w < args.word_end; ++w) {
    const uint64_t bits = gw[w];
    if (bits == 0) continue;
    if (rows + 64 > args.safe_rows) {
      for (size_t k = 0; k < num_treatments; ++k) {
        FlushIntSinkToFp(treatments[k].overall, args.num_slots);
        if (kSplit) {
          FlushIntSinkToFp(treatments[k].prot, args.num_slots);
          FlushIntSinkToFp(treatments[k].nonprot, args.num_slots);
        }
      }
      WalkFp<kSplit, false, Lanes>(args, w);
      return false;
    }
    const uint64_t pword = kSplit ? pw[w] : 0;
    const size_t base = w * 64;
    if (Lanes::kDense && bits == ~0ULL) {
      if (args.dense_words != nullptr) ++*args.dense_words;
      for (size_t k = 0; k < num_treatments; ++k) {
        const CateTreatmentSinks& t = treatments[k];
        Lanes::Prepare(args.cell_of_row + base, t.treated_words[w], &lanes);
        IntDenseWord<kSplit>(args, t, base, lanes, pword);
      }
      rows += static_cast<size_t>(__builtin_popcountll(lanes.valid));
      continue;
    }
    if (args.sparse_words != nullptr) ++*args.sparse_words;
    const size_t count = StageWord<kSplit>(bits, base, args.cell_of_row,
                                           args.outcome_i64, pword, stage);
    rows += count;
    for (size_t k = 0; k < num_treatments; ++k) {
      const CateTreatmentSinks& t = treatments[k];
      ReplayInt<kSplit>(t, t.treated_words[w], stage, count);
    }
  }
  return true;
}

/// The tiers' cate_accumulate: picks the (split, moments) specialization.
template <typename Lanes>
inline void CateAccumulate(const CateAccumArgs& args) {
  if (args.protected_words != nullptr) {
    if (args.moments) {
      WalkFp<true, true, Lanes>(args, args.word_begin);
    } else {
      WalkFp<true, false, Lanes>(args, args.word_begin);
    }
  } else {
    if (args.moments) {
      WalkFp<false, true, Lanes>(args, args.word_begin);
    } else {
      WalkFp<false, false, Lanes>(args, args.word_begin);
    }
  }
}

/// The tiers' cate_accumulate_int: picks the (split) specialization.
template <typename Lanes>
inline bool CateAccumulateInt(const CateAccumArgs& args) {
  if (args.protected_words != nullptr) return WalkInt<true, Lanes>(args);
  return WalkInt<false, Lanes>(args);
}

}  // namespace core
}  // namespace simd
}  // namespace faircap

#endif  // FAIRCAP_UTIL_SIMD_SIMD_KERNELS_CORE_H_
