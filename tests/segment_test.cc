// Tests for compressed column segments (storage/segment.h) and the
// out-of-core execution paths built on them: encode/decode round-trip
// property tests over random tables, corruption rejection, zone-map
// pruning correctness (a skipped segment provably holds no qualifying
// row), and spill-to-disk join/group-by differentials — bit-identical to
// the in-memory engine and the row-path oracle at 1/2/8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/keyring.h"
#include "crypto/scheme.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "paper_example.h"
#include "storage/segment.h"
#include "testing/random_plan.h"
#include "testing/reference_exec.h"

// While a test sets a cap, a single allocation larger than it is refused
// (std::bad_alloc) and recorded: a decoder that sizes anything by a forged
// count is caught asking, and the request is never paid for.
namespace {
std::atomic<size_t> g_alloc_cap{0};  // 0: no cap
std::atomic<size_t> g_refused_alloc{0};
}  // namespace

void* operator new(size_t n) {
  const size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  if (cap != 0 && n > cap) {
    size_t seen = g_refused_alloc.load();
    while (n > seen && !g_refused_alloc.compare_exchange_weak(seen, n)) {
    }
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

Cell I(int64_t v) { return Cell(Value(v)); }
Cell D(double v) { return Cell(Value(v)); }
Cell S(std::string v) { return Cell(Value(std::move(v))); }

// ------------------------------------------------------- random tables ---

/// A random table drawing every column from a different encoding regime:
/// RLE-friendly and wide int64, doubles (with signed zeros and NaN),
/// dictionary-friendly and all-distinct strings, ciphertexts under every
/// scheme, and heterogeneous cell columns — each with a random null rate.
Table RandomTable(uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  const size_t num_cols = 1 + rng.Uniform(5);
  const size_t rows = rng.Uniform(401);
  KeyMaterial km = MakeKeyMaterial(7, 3);

  std::vector<ExecColumn> cols(num_cols);
  std::vector<int> kind(num_cols);
  std::vector<double> null_p(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    kind[c] = static_cast<int>(rng.Uniform(7));
    null_p[c] = std::vector<double>{0.0, 0.1, 0.9}[rng.Uniform(3)];
    cols[c].attr = static_cast<AttrId>(c + 1);
    cols[c].name = "c" + std::to_string(c);
    switch (kind[c]) {
      case 0:  // constant-ish int64 (RLE)
      case 1:  // wide int64 (frame-of-reference)
        cols[c].type = DataType::kInt64;
        break;
      case 2:  // double
        cols[c].type = DataType::kDouble;
        break;
      case 3:  // repetitive string (dictionary)
      case 4:  // distinct string (plain)
        cols[c].type = DataType::kString;
        break;
      case 5:  // ciphertexts
        cols[c].type = DataType::kInt64;
        cols[c].encrypted = true;
        cols[c].scheme = static_cast<EncScheme>(rng.Uniform(4));
        break;
      default:  // heterogeneous cells
        break;
    }
  }
  Table t(std::move(cols));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Cell> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      if (rng.Chance(null_p[c])) {
        row.push_back(Cell(Value::Null()));
        continue;
      }
      switch (kind[c]) {
        case 0:
          row.push_back(I(static_cast<int64_t>(rng.Uniform(3))));
          break;
        case 1:
          row.push_back(I(static_cast<int64_t>(rng.Uniform(1u << 20)) -
                          500000 + 1000000000ll));
          break;
        case 2: {
          uint64_t pick = rng.Uniform(20);
          double v = pick == 0   ? 0.0
                     : pick == 1 ? -0.0
                     : pick == 2 ? std::nan("")
                                 : rng.NextDouble() * 2000 - 1000;
          row.push_back(D(v));
          break;
        }
        case 3:
          row.push_back(S("mode-" + std::to_string(rng.Uniform(4))));
          break;
        case 4:
          row.push_back(S("u" + std::to_string(r) + "-" +
                          std::to_string(rng.Next() % 100000)));
          break;
        case 5: {
          const ExecColumn& m = t.columns()[c];
          row.push_back(Cell(*EncryptValue(
              Value(static_cast<int64_t>(rng.Uniform(100))), m.scheme, 3, km,
              r + 1)));
          break;
        }
        default: {
          uint64_t pick = rng.Uniform(3);
          if (pick == 0) {
            row.push_back(I(static_cast<int64_t>(rng.Uniform(50))));
          } else if (pick == 1) {
            row.push_back(S("m" + std::to_string(rng.Uniform(6))));
          } else {
            row.push_back(D(rng.NextDouble()));
          }
          break;
        }
      }
    }
    t.AddRow(std::move(row));
  }
  return t;
}

/// A ciphertext column of `rows` rows under `scheme`. Row r is NULL when
/// r % null_every == 3 % null_every (every row at 1, none at 0); any other
/// row holds `width` bytes (0: 1 + r % 41) under the key and Paillier count
/// `key_of` / `aux_of` choose. No blob is empty: no scheme writes an empty
/// ciphertext, and a ciphertext page refuses one.
ColumnData EncColumn(size_t rows, EncScheme scheme, size_t null_every,
                     const std::function<uint64_t(size_t)>& key_of,
                     const std::function<int64_t(size_t)>& aux_of,
                     size_t width = 0) {
  ColumnData d(ColumnRep::kEnc);
  for (size_t r = 0; r < rows; ++r) {
    if (null_every != 0 && r % null_every == 3 % null_every) {
      d.AppendNull();
      continue;
    }
    EncValue ev;
    ev.scheme = scheme;
    ev.key_id = key_of(r);
    ev.aux = aux_of(r);
    ev.blob = std::string(width != 0 ? width : 1 + r % 41,
                          static_cast<char>('a' + r % 26));
    d.Append(Cell(std::move(ev)));
  }
  return d;
}

/// EncColumn as the one column "e" of a table.
Table EncTable(size_t rows, EncScheme scheme, size_t null_every,
               const std::function<uint64_t(size_t)>& key_of,
               const std::function<int64_t(size_t)>& aux_of) {
  ExecColumn meta;
  meta.attr = 1;
  meta.name = "e";
  meta.encrypted = true;
  meta.scheme = scheme;
  Table t;
  t.AddColumn(meta, EncColumn(rows, scheme, null_every, key_of, aux_of));
  return t;
}

/// Adds one ciphertext column of `rows` rows per kind of page the codec
/// writes: single-key pages under RND, DET (with NULLs), OPE and HOM
/// (16-byte blobs, so their lengths pack to a base alone; HOM with counts
/// other than 1), a mixed-key page, and an all-NULL page.
void AddCiphertextKinds(Table* t, size_t rows) {
  auto key = [](uint64_t k) { return [k](size_t) { return k; }; };
  auto one = [](size_t) { return int64_t{1}; };
  auto add = [t](const char* name, EncScheme scheme, ColumnData d) {
    ExecColumn meta;
    meta.attr = static_cast<AttrId>(t->num_columns() + 1);
    meta.name = name;
    meta.encrypted = true;
    meta.scheme = scheme;
    t->AddColumn(meta, std::move(d));
  };
  add("rnd", EncScheme::kRandom,
      EncColumn(rows, EncScheme::kRandom, 0, key(11), one));
  add("det_nulls", EncScheme::kDeterministic,
      EncColumn(rows, EncScheme::kDeterministic, 5, key(12), one));
  add("ope", EncScheme::kOpe,
      EncColumn(rows, EncScheme::kOpe, 0, key(13), one, 16));
  add("hom_aux", EncScheme::kPaillier,
      EncColumn(
          rows, EncScheme::kPaillier, 7, key(14),
          [](size_t r) { return static_cast<int64_t>(1 + r % 3); }, 16));
  add("mixed", EncScheme::kDeterministic,
      EncColumn(
          rows, EncScheme::kDeterministic, 0,
          [](size_t r) { return r % 3 == 1 ? uint64_t{16} : uint64_t{15}; },
          one));
  add("all_null", EncScheme::kRandom,
      EncColumn(rows, EncScheme::kRandom, 1, key(17), one));
}

// ---------------------------------------------------------- round-trip ---

TEST(SegmentTest, RandomTablesRoundTripBitIdentically) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Table t = RandomTable(seed);
    Result<std::string> enc = EncodeSegment(t);
    ASSERT_TRUE(enc.ok()) << "seed " << seed << ": " << enc.status().ToString();
    // Deterministic: same table, same bytes.
    ASSERT_EQ(*enc, *EncodeSegment(t)) << "seed " << seed;

    Result<SegmentReader> r = SegmentReader::Open(*enc);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), t.num_rows()) << "seed " << seed;
    EXPECT_EQ(r->num_columns(), t.num_columns()) << "seed " << seed;

    Result<Table> back = r->Decode();
    ASSERT_TRUE(back.ok()) << "seed " << seed << ": "
                           << back.status().ToString();
    // Bit-identical: the wire serialization (covering reps, values, null
    // masks, and metadata) must match exactly — NaN and -0.0 included.
    ASSERT_EQ(back->SerializeColumns(), t.SerializeColumns())
        << "seed " << seed;
  }
}

// ------------------------------------------------------ golden frame ---

/// Bit patterns of doubles, so NaN and -0.0 compare exactly.
std::vector<uint64_t> DoubleBits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    std::memcpy(&bits[i], &v[i], sizeof(double));
  }
  return bits;
}

/// Equal decoded tables, column by column: the same rep, null mask, typed
/// vectors (double bits exact), ciphertext arena (keys, blobs, counts, and
/// whether it keeps per-row keys) and cells.
void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  EXPECT_EQ(got.SerializeColumns(), want.SerializeColumns()) << what;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnData& g = got.col(c);
    const ColumnData& w = want.col(c);
    ASSERT_EQ(g.rep(), w.rep()) << what << " col " << c;
    ASSERT_EQ(g.has_nulls(), w.has_nulls()) << what << " col " << c;
    for (size_t row = 0; row < w.size(); ++row) {
      ASSERT_EQ(g.IsNull(row), w.IsNull(row)) << what << " col " << c;
    }
    EXPECT_EQ(g.i64(), w.i64()) << what << " col " << c;
    EXPECT_EQ(DoubleBits(g.f64()), DoubleBits(w.f64())) << what << " col " << c;
    EXPECT_EQ(g.str(), w.str()) << what << " col " << c;
    EXPECT_EQ(g.enc(), w.enc()) << what << " col " << c;
    EXPECT_EQ(g.enc().mixed_keys(), w.enc().mixed_keys()) << what;
    ASSERT_EQ(g.cells().size(), w.cells().size()) << what << " col " << c;
    for (size_t row = 0; row < w.cells().size(); ++row) {
      const Cell& a = g.cells()[row];
      const Cell& b = w.cells()[row];
      ASSERT_EQ(a.is_plain(), b.is_plain()) << what << " row " << row;
      if (a.is_plain()) {
        EXPECT_EQ(a.plain().Serialize(), b.plain().Serialize()) << what;
      } else {
        EXPECT_EQ(a.enc(), b.enc()) << what << " row " << row;
      }
    }
  }
}

/// `t` rebuilt by appending its rows one at a time: what a decode must
/// produce (a null mask that marks no row is dropped, for one).
Table Reappended(const Table& t) {
  Table out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnData& src = t.col(c);
    ColumnData d(src.rep());
    for (size_t row = 0; row < src.size(); ++row) d.Append(src.GetCell(row));
    out.AddColumn(t.columns()[c], std::move(d));
  }
  if (t.num_columns() == 0) {
    for (size_t row = 0; row < t.num_rows(); ++row) out.AddRow({});
  }
  return out;
}

/// One deterministic table (no crypto, no RNG state shared with other
/// tests) that reaches every page the codec writes: FOR pages at every bit
/// width from 1 to 63 plus raw pages (the 64-bit width), RLE pages,
/// dictionary string pages at code widths 0/1/3/8 and plain string pages,
/// doubles with NaN, +-0.0 and infinities, ciphertext pages of every kind
/// (AddCiphertextKinds, plus pages mixing schemes, keys and counts) and
/// heterogeneous cell columns, NULLs in every typed rep, and columns whose
/// null mask exists but marks no row.
Table GoldenTable() {
  constexpr size_t kRows = 200;
  uint64_t state = 0x601d;
  auto next = [&state] { return state = SplitMix64(state); };

  Table t;
  AttrId attr = 1;
  auto add = [&](std::string name, DataType type, ColumnData d,
                 bool encrypted = false,
                 EncScheme scheme = EncScheme::kRandom) {
    ExecColumn col;
    col.attr = attr++;
    col.name = std::move(name);
    col.type = type;
    col.encrypted = encrypted;
    col.scheme = scheme;
    col.key_id = encrypted ? 40 + attr : 0;
    t.AddColumn(std::move(col), std::move(d));
  };
  auto ints = [&](const std::string& name, size_t null_every, auto value_of) {
    ColumnData d(ColumnRep::kInt64);
    for (size_t r = 0; r < kRows; ++r) {
      if (null_every != 0 && r % null_every == null_every - 1) {
        d.AppendNull();
      } else {
        d.AppendValue(Value(static_cast<int64_t>(value_of(r))));
      }
    }
    add(name, DataType::kInt64, std::move(d));
  };

  // Frame-of-reference at every width: rows 0 and 1 pin the delta range
  // to exactly `w` bits, the rest are random within it.
  for (uint8_t w = 1; w <= 63; ++w) {
    const uint64_t mask = (1ull << w) - 1;
    const uint64_t base = w % 2 == 1 ? 0 - (1ull << (w - 1)) : 12345u * w;
    ints("for" + std::to_string(w), 0, [&](size_t r) {
      if (r < 2) return base + (r == 0 ? 0 : mask);
      return base + (next() & mask);
    });
  }
  ints("for_nulls", 7, [&](size_t) { return next() % 100000; });
  // Raw: the full 64-bit range, with and without NULLs.
  const uint64_t kMin = uint64_t{1} << 63;
  ints("raw", 0, [&](size_t r) {
    if (r < 2) return r == 0 ? kMin : ~kMin;
    return next();
  });
  ints("raw_nulls", 5, [&](size_t) { return next(); });
  // Run-length: 10 runs of 20, extreme values included.
  ints("rle", 0, [&](size_t r) {
    return r / 20 == 3 ? kMin : r / 20 * 7 - 30;
  });
  ints("rle_nulls", 50, [](size_t r) { return r / 50 * 1000000000000ull; });
  ints("all_null", 1, [](size_t) { return 0; });

  // Doubles: specials, random values, NULLs.
  const double specials[] = {0.0, -0.0, std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (size_t null_every : {size_t{0}, size_t{6}}) {
    ColumnData d(ColumnRep::kDouble);
    for (size_t r = 0; r < kRows; ++r) {
      if (null_every != 0 && r % null_every == 2) {
        d.AppendNull();
      } else if (r % 10 < 5) {
        d.AppendValue(Value(specials[r % 10]));
      } else {
        d.AppendValue(Value(static_cast<double>(next() % 2000000) / 7 - 1e5));
      }
    }
    add("f64_" + std::to_string(null_every), DataType::kDouble, std::move(d));
  }
  // No NaN: this one carries a zone range.
  {
    ColumnData d(ColumnRep::kDouble);
    for (size_t r = 0; r < kRows; ++r) {
      d.AppendValue(Value(static_cast<double>(r) * 0.25 - 7));
    }
    add("f64_range", DataType::kDouble, std::move(d));
  }

  // Strings: dictionary pages at code widths 0, 1, 3 and 8, then plain
  // pages (distinct values, an empty string, an embedded NUL byte).
  const std::string pad(40, 'x');
  for (size_t distinct : {size_t{1}, size_t{2}, size_t{7}, size_t{150}}) {
    ColumnData d(ColumnRep::kString);
    for (size_t r = 0; r < kRows; ++r) {
      if (distinct == 7 && r % 11 == 4) {
        d.AppendNull();
      } else {
        size_t k = distinct > 128 ? r % distinct : next() % distinct;
        d.AppendValue(Value("v" + std::to_string(k) + pad));
      }
    }
    add("dict" + std::to_string(distinct), DataType::kString, std::move(d));
  }
  for (size_t null_every : {size_t{0}, size_t{8}}) {
    ColumnData d(ColumnRep::kString);
    for (size_t r = 0; r < kRows; ++r) {
      if (null_every != 0 && r % null_every == 3) {
        d.AppendNull();
      } else if (r == 5) {
        d.AppendValue(Value(std::string()));
      } else if (r == 6) {
        d.AppendValue(Value(std::string("nul\0byte", 8)));
      } else {
        d.AppendValue(Value("p" + std::to_string(next())));
      }
    }
    add("plain" + std::to_string(null_every), DataType::kString,
        std::move(d));
  }

  // Ciphertexts under every scheme, blobs of varying length.
  auto enc_value = [&](size_t r) {
    EncValue ev;
    ev.scheme = static_cast<EncScheme>(r % 4);
    ev.key_id = 100 + r % 3;
    ev.aux = r % 5 == 0 ? -static_cast<int64_t>(r) : 1;
    for (size_t k = next() % 40; k > 0; --k) {
      ev.blob.push_back(static_cast<char>(next()));
    }
    return ev;
  };
  // A ciphertext page holds no empty blob (cell pages still may): one byte
  // stands in for an empty draw, leaving the draws themselves, and so every
  // later column, as they were.
  auto page_value = [&](size_t r) {
    EncValue ev = enc_value(r);
    if (ev.blob.empty()) ev.blob = "e";
    return ev;
  };
  for (size_t null_every : {size_t{0}, size_t{4}}) {
    ColumnData d(ColumnRep::kEnc);
    for (size_t r = 0; r < kRows; ++r) {
      if (null_every != 0 && r % null_every == 1) {
        d.AppendNull();
      } else {
        d.Append(Cell(page_value(r)));
      }
    }
    add("enc" + std::to_string(null_every), DataType::kInt64, std::move(d),
        /*encrypted=*/true, EncScheme::kDeterministic);
  }

  // Heterogeneous cells: ints, doubles, strings, NULLs and ciphertexts.
  {
    ColumnData d(ColumnRep::kCell);
    for (size_t r = 0; r < kRows; ++r) {
      switch (r % 5) {
        case 0:
          d.Append(I(static_cast<int64_t>(next() % 1000) - 500));
          break;
        case 1:
          d.Append(D(r % 10 == 1 ? -0.0 : static_cast<double>(r) / 3));
          break;
        case 2:
          d.Append(S("c" + std::to_string(r)));
          break;
        case 3:
          d.Append(Cell(Value::Null()));
          break;
        default:
          d.Append(Cell(enc_value(r)));
          break;
      }
    }
    add("cells", DataType::kInt64, std::move(d));
  }

  // Null masks that exist but mark no row: a range sliced off a masked
  // column before its only NULL.
  {
    ColumnData src(ColumnRep::kInt64);
    for (size_t r = 0; r < kRows; ++r) {
      src.AppendValue(Value(static_cast<int64_t>(next() % 64)));
    }
    src.AppendNull();
    ColumnData d(ColumnRep::kInt64);
    d.AppendRange(src, 0, kRows);
    EXPECT_TRUE(d.has_nulls());
    add("mask_no_null_i64", DataType::kInt64, std::move(d));
  }
  {
    ColumnData src(ColumnRep::kEnc);
    for (size_t r = 0; r < kRows; ++r) src.Append(Cell(page_value(r)));
    src.AppendNull();
    ColumnData d(ColumnRep::kEnc);
    d.AppendRange(src, 0, kRows);
    EXPECT_TRUE(d.has_nulls());
    add("mask_no_null_enc", DataType::kInt64, std::move(d),
        /*encrypted=*/true, EncScheme::kRandom);
  }
  AddCiphertextKinds(&t, kRows);
  return t;
}

/// HashBytes of a frame with its version byte and trailing checksum zeroed:
/// a fingerprint of every byte the codec decides besides those two.
uint64_t FrameBodyHash(std::string frame) {
  frame[4] = 0;
  std::fill(frame.end() - 8, frame.end(), '\0');
  return HashBytes(frame.data(), frame.size());
}

/// The columns of `t` with (`enc`) or without a ciphertext page.
Table PagesOf(const Table& t, bool enc) {
  Table out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if ((t.col(c).rep() == ColumnRep::kEnc) == enc) {
      out.AddColumn(t.columns()[c], t.ShareCol(c));
    }
  }
  return out;
}

/// Encodes `t`, checks the frame's size and body hash, and that it decodes
/// to exactly what appending the rows one at a time builds: same rep, same
/// typed vectors (masked slots holding the defaults AppendNull writes),
/// same mask — dropped when it marks no row — and same arena.
void ExpectPinnedFrame(const Table& t, size_t size, uint64_t body_hash) {
  Result<std::string> frame = EncodeSegment(t);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->size(), size);
  EXPECT_EQ(FrameBodyHash(*frame), body_hash);
  Result<SegmentReader> r = SegmentReader::Open(*frame);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Table> back = r->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(*back, Reappended(t), "golden");
}

TEST(SegmentTest, GoldenFrameBodyIsPinned) {
  // The plaintext and cell pages, pinned from the frame version 3 codec:
  // version 4 changed only the ciphertext page, so these bytes on the wire
  // must not move.
  Table t = PagesOf(GoldenTable(), /*enc=*/false);
  ASSERT_EQ(t.num_rows(), 200u);
  ExpectPinnedFrame(t, 86829u, 3416257630687918052ull);
}

TEST(SegmentTest, GoldenCiphertextPagesArePinned) {
  // Every kind of ciphertext page version 4 writes: single-key pages under
  // each scheme, NULLs, counts other than 1, mixed keys and schemes, an
  // all-NULL page and a null mask that marks no row.
  Table t = PagesOf(GoldenTable(), /*enc=*/true);
  ASSERT_EQ(t.num_columns(), 9u);
  ExpectPinnedFrame(t, 30920u, 15486808721607311620ull);
}

TEST(SegmentTest, MixedKeyCiphertextPageRoundTrips) {
  // A ciphertext column holds its (scheme, key) once; rows under a second
  // key switch it to per-row keys, never out of the flat arena, so the
  // page still carries one record per row and decodes to equal cells.
  const EncValue a{EncScheme::kDeterministic, 1, "alpha", 1};
  const EncValue b{EncScheme::kDeterministic, 2, std::string(16, '\x7f'), 5};
  ColumnData uniform(ColumnRep::kEnc);
  ColumnData mixed(ColumnRep::kEnc);
  for (size_t r = 0; r < 40; ++r) {
    if (r % 9 == 4) {
      uniform.AppendNull();
      mixed.AppendNull();
      continue;
    }
    uniform.Append(Cell(a));
    mixed.Append(Cell(r % 3 == 1 ? b : a));
  }
  EXPECT_FALSE(uniform.enc().mixed_keys());
  ASSERT_EQ(mixed.rep(), ColumnRep::kEnc);
  EXPECT_TRUE(mixed.enc().mixed_keys());

  Table t;
  ExecColumn meta;
  meta.encrypted = true;
  meta.scheme = EncScheme::kDeterministic;
  meta.name = "uniform";
  t.AddColumn(meta, uniform);
  meta.name = "mixed";
  t.AddColumn(meta, mixed);
  Result<std::string> frame = EncodeSegment(t);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<SegmentReader> r = SegmentReader::Open(*frame);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Table> back = r->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnData& want = t.col(c);
    const ColumnData& got = back->col(c);
    ASSERT_EQ(got.rep(), ColumnRep::kEnc);
    EXPECT_EQ(got.enc().mixed_keys(), want.enc().mixed_keys());
    EXPECT_EQ(got.enc(), want.enc());
    ASSERT_EQ(got.size(), want.size());
    for (size_t row = 0; row < want.size(); ++row) {
      ASSERT_EQ(got.IsNull(row), want.IsNull(row)) << row;
      if (want.IsNull(row)) continue;
      EXPECT_EQ(got.GetCell(row).enc(), want.GetCell(row).enc()) << row;
    }
  }
  Result<std::string> again = EncodeSegment(*back);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frame);
  EXPECT_EQ(back->SerializeColumns(), t.SerializeColumns());
}

TEST(SegmentTest, ZoneMapsMatchColumnContents) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Table t = RandomTable(seed);
    Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(t));
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const SegmentZone& z = r->zone(c);
      EXPECT_EQ(z.num_rows, t.num_rows());
      // A row is null when the mask says so or (kCell rep) the cell holds
      // a plain NULL value.
      auto row_is_null = [&](size_t row) {
        if (t.col(c).IsNull(row)) return true;
        Cell cell = t.col(c).GetCell(row);
        return cell.is_plain() && cell.plain().is_null();
      };
      uint64_t nulls = 0;
      for (size_t row = 0; row < t.num_rows(); ++row) {
        if (row_is_null(row)) nulls++;
      }
      EXPECT_EQ(z.null_count, nulls) << "seed " << seed << " col " << c;
      if (!z.has_range) continue;
      // Ranges only appear on unencrypted typed columns and must bound
      // every non-null value.
      EXPECT_FALSE(t.columns()[c].encrypted);
      for (size_t row = 0; row < t.num_rows(); ++row) {
        if (row_is_null(row)) continue;
        Value v = t.col(c).GetValue(row);
        EXPECT_TRUE(EvalCmp(CmpOp::kGe, v, z.min))
            << "seed " << seed << " col " << c << " row " << row;
        EXPECT_TRUE(EvalCmp(CmpOp::kLe, v, z.max))
            << "seed " << seed << " col " << c << " row " << row;
      }
    }
  }
}

TEST(SegmentTest, EmptyAndZeroColumnTablesSurvive) {
  std::vector<ExecColumn> cols(2);
  cols[0].attr = 1;
  cols[0].name = "k";
  cols[0].type = DataType::kInt64;
  cols[1].attr = 2;
  cols[1].name = "s";
  cols[1].type = DataType::kString;
  Table empty(cols);
  Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(r->Decode()->SerializeColumns(), empty.SerializeColumns());

  Table colless;
  colless.AddRow({});
  colless.AddRow({});
  Result<SegmentReader> r2 = SegmentReader::Open(*EncodeSegment(colless));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 2u);
  EXPECT_EQ(r2->Decode()->SerializeColumns(), colless.SerializeColumns());
}

TEST(SegmentTest, SegmentedTableSlicesAndConcatenatesLosslessly) {
  Table t = RandomTable(42);
  for (size_t rows_per : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    Result<SegmentedTable> st = SegmentedTable::FromTable(t, rows_per);
    ASSERT_TRUE(st.ok()) << "rows_per " << rows_per;
    EXPECT_EQ(st->total_rows(), t.num_rows());
    EXPECT_GE(st->num_segments(), 1u);
    if (rows_per == 1 && t.num_rows() > 1) {
      EXPECT_EQ(st->num_segments(), t.num_rows());
    }
    Result<Table> back = st->Decode();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->SerializeColumns(), t.SerializeColumns())
        << "rows_per " << rows_per;
    Result<const Table*> memo = st->Materialize();
    ASSERT_TRUE(memo.ok());
    EXPECT_EQ(*memo, *st->Materialize());  // shared decode
    EXPECT_GT(st->encoded_bytes(), 0u);
  }
}

// ---------------------------------------------------------- corruption ---

TEST(SegmentTest, MutatedFramesAreRejectedNeverCrash) {
  // 10k mutants of a small frame through the inline decoder, then 10k of a
  // frame with enough rows (4096, packed small: bit-packed keys and a
  // dictionary string column with NULLs) that the scheduled decoder really
  // runs its pages on the pool. Both carry every kind of ciphertext page.
  std::vector<ExecColumn> cols(2);
  cols[0].attr = 1;
  cols[0].name = "k";
  cols[1].attr = 2;
  cols[1].name = "s";
  cols[1].type = DataType::kString;
  Table tall(cols);
  for (int64_t r = 0; r < 4096; ++r) {
    tall.AddRow({I(r * 7), r % 9 == 0 ? Cell(Value::Null())
                                      : S("m" + std::to_string(r % 5))});
  }
  AddCiphertextKinds(&tall, tall.num_rows());
  Table small = RandomTable(7);
  ASSERT_GT(small.num_rows(), 0u);
  AddCiphertextKinds(&small, small.num_rows());
  ThreadPool pool(2);
  MorselScheduler two(&pool);
  const std::pair<std::string, MorselScheduler*> runs[] = {
      {*EncodeSegment(small), nullptr}, {*EncodeSegment(tall), &two}};
  for (const auto& [wire, sched] : runs) {
    ASSERT_TRUE(SegmentReader::Open(wire, sched).ok());
    uint64_t rng = 0xdecafbadf00d1234ull;
    auto next = [&rng] { return rng = SplitMix64(rng); };
    for (int iter = 0; iter < 10000; ++iter) {
      std::string mut = wire;
      switch (next() % 4) {
        case 0:
          mut.resize(next() % (wire.size() + 1));
          break;
        case 1: {
          size_t flips = 1 + next() % 8;
          for (size_t f = 0; f < flips && !mut.empty(); ++f) {
            mut[next() % mut.size()] ^= static_cast<char>(1u << (next() % 8));
          }
          break;
        }
        case 2: {
          size_t smashes = 1 + next() % 9;
          for (size_t s = 0; s < smashes && !mut.empty(); ++s) {
            mut[next() % mut.size()] = static_cast<char>(next() % 256);
          }
          break;
        }
        default:
          mut.resize(next() % (wire.size() + 1));
          for (size_t e = next() % 32; e > 0; --e) {
            mut.push_back(static_cast<char>(next() % 256));
          }
          break;
      }
      Result<SegmentReader> r = SegmentReader::Open(mut, sched);
      if (!r.ok()) continue;
      // The trailing checksum makes accidental acceptance essentially
      // impossible for anything but an untouched frame; whatever is
      // accepted must still decode cleanly.
      Result<Table> back = r->Decode(sched);
      ASSERT_TRUE(back.ok()) << "accepted frame failed to decode";
    }
  }
}

TEST(SegmentTest, EverySingleBitFlipIsRejected) {
  // Exhaustive, not sampled: the frame checksum detects any change confined
  // to one 64-bit word, so no single-bit flip anywhere — header, pages,
  // footer, trailer — may be accepted.
  std::vector<ExecColumn> cols(3);
  cols[0].attr = 1;
  cols[0].name = "k";
  cols[1].attr = 2;
  cols[1].name = "s";
  cols[1].type = DataType::kString;
  cols[2].attr = 3;
  cols[2].name = "e";
  cols[2].encrypted = true;
  Table t(cols);
  for (int64_t r = 0; r < 12; ++r) {
    EncValue ev;
    ev.key_id = 9;
    ev.blob = "blob" + std::to_string(r);
    t.AddRow({r % 4 == 3 ? Cell(Value::Null()) : I(r * 37 - 100),
              S(r % 2 == 0 ? "even" : "odd"), Cell(std::move(ev))});
  }
  AddCiphertextKinds(&t, t.num_rows());
  const std::string frame = *EncodeSegment(t);
  ASSERT_TRUE(SegmentReader::Open(frame).ok());
  ThreadPool pool(2);
  MorselScheduler two(&pool);
  for (MorselScheduler* sched :
       {static_cast<MorselScheduler*>(nullptr), &two}) {
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mut = frame;
        mut[pos] ^= static_cast<char>(1u << bit);
        EXPECT_FALSE(SegmentReader::Open(std::move(mut), sched).ok())
            << "flip of bit " << bit << " at byte " << pos << " of "
            << frame.size() << " was accepted"
            << (sched == nullptr ? "" : " (scheduled)");
      }
    }
  }
}

TEST(SegmentTest, VersionOneFramesAreRejected) {
  // A version-1 frame (byte-wise FNV-1a checksum) whose checksum is valid
  // for its bytes is still refused: its version is no longer readable.
  std::string frame = *EncodeSegment(RandomTable(3));
  frame[4] = 1;
  uint64_t fnv = HashBytes(frame.data(), frame.size() - 8);
  std::memcpy(&frame[frame.size() - 8], &fnv, sizeof(fnv));
  Result<SegmentReader> r = SegmentReader::Open(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("version 1"), std::string::npos)
      << r.status().ToString();
}

/// The word-wise checksum of frame version 2 (one pass over the whole frame,
/// no chunks), kept here only to build genuine version-2 frames.
uint64_t VersionTwoChecksum(const char* data, size_t n) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  auto rotl = [](uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const size_t words = (n + 7) / 8;
  for (size_t i = 0; i < words; ++i) {
    uint64_t w = 0;
    std::memcpy(&w, data + 8 * i, std::min<size_t>(8, n - 8 * i));
    lane[i % 4] = rotl(lane[i % 4] + w * kP2, 31) * kP1;
  }
  uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) +
               rotl(lane[3], 18);
  return HashMix64(h ^ n);
}

TEST(SegmentTest, VersionTwoFramesAreRejected) {
  // A version-2 frame whose checksum is valid for its bytes is refused as
  // version 1 frames are: its version is no longer readable.
  std::string frame = *EncodeSegment(RandomTable(3));
  frame[4] = 2;
  uint64_t sum = VersionTwoChecksum(frame.data(), frame.size() - 8);
  std::memcpy(&frame[frame.size() - 8], &sum, sizeof(sum));
  Result<SegmentReader> r = SegmentReader::Open(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("version 2"), std::string::npos)
      << r.status().ToString();
}

/// Recomputes the trailing checksum after a deliberate edit, so the frame
/// passes Open and reaches the page decoders.
void Reseal(std::string* frame) {
  uint64_t sum = SegmentChecksum(frame->data(), frame->size() - 8);
  std::memcpy(&(*frame)[frame->size() - 8], &sum, sizeof(sum));
}

TEST(SegmentTest, VersionThreeFramesAreRejected) {
  // Version 3 shares version 4's checksum, so a frame resealed as version 3
  // is valid byte for byte; it is still refused, since its ciphertext pages
  // held a record per row.
  std::string frame = *EncodeSegment(RandomTable(3));
  frame[4] = 3;
  Reseal(&frame);
  Result<SegmentReader> r = SegmentReader::Open(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("version 3"), std::string::npos)
      << r.status().ToString();
}

/// Runs `fn` with every single allocation over `cap` bytes refused, and
/// returns the largest refused request (0 when none was).
size_t LargestRefusedAllocation(size_t cap, const std::function<void()>& fn) {
  g_refused_alloc = 0;
  g_alloc_cap = cap;
  try {
    fn();
  } catch (const std::bad_alloc&) {
  }
  g_alloc_cap = 0;
  return g_refused_alloc;
}

/// Header layout: magic (4), version (1), rows (8), columns (4).
constexpr size_t kRowsAt = 5;
constexpr size_t kFirstPageAt = 17;

TEST(SegmentTest, OversizedRowCountIsRejectedBeforeAllocating) {
  // A resealed frame claiming the row-count cap (2^31 rows) over a one- or
  // two-row page: decoding must refuse it from the page length, never by
  // first asking for 16 GiB of int64 slots. Uniform ciphertext lengths pack
  // to 10 bytes at any row count, so that page is bounded by what a row
  // costs instead: a blob byte per non-NULL row (no ciphertext is empty), a
  // mask bit per NULL row. Every kind of ciphertext page is tried.
  auto claim_rows = [](std::string frame) {
    uint64_t rows = uint64_t{1} << 31;
    std::memcpy(&frame[kRowsAt], &rows, sizeof(rows));
    Reseal(&frame);
    return frame;
  };
  ExecColumn col;
  col.attr = 1;
  col.name = "k";
  col.type = DataType::kInt64;
  std::vector<Table> tables;
  tables.emplace_back(std::vector<ExecColumn>{col});
  tables.back().AddRow({I(123456789)});  // one row: a raw page of 8 bytes
  tables.emplace_back(std::vector<ExecColumn>{col});
  tables.back().AddRow({I(0)});
  tables.back().AddRow({I(1)});  // two rows: a 1-bit frame-of-reference page
  Table kinds;
  AddCiphertextKinds(&kinds, 2);  // row 1 mixes keys and counts
  for (size_t c = 0; c < kinds.num_columns(); ++c) {
    tables.emplace_back();
    tables.back().AddColumn(kinds.columns()[c], kinds.ShareCol(c));
  }
  ThreadPool pool(2);
  MorselScheduler two(&pool);
  for (const Table& t : tables) {
    const std::string& name = t.columns()[0].name;
    std::string frame = claim_rows(*EncodeSegment(t));
    for (MorselScheduler* sched :
         {static_cast<MorselScheduler*>(nullptr), &two}) {
      Result<SegmentReader> r = SegmentReader::Open(frame, sched);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      ASSERT_EQ(r->num_rows(), uint64_t{1} << 31);
      bool decoded = true;
      EXPECT_EQ(LargestRefusedAllocation(
                    size_t{1} << 20, [&] { decoded = r->Decode(sched).ok(); }),
                0u)
          << name;
      EXPECT_FALSE(decoded) << name;
    }
  }
}

TEST(SegmentTest, OversizedDictionaryIsRejectedBeforeAllocating) {
  // A dictionary page of two 4 KiB values, its value count resealed up to
  // half the page's length. Every value costs at least its u32 length, so
  // the count is refused from the bytes left, never by first asking for
  // that many strings (32 bytes each: 16x the page).
  ExecColumn col;
  col.attr = 1;
  col.name = "s";
  col.type = DataType::kString;
  Table t({col});
  for (int r = 0; r < 64; ++r) {
    t.AddRow({S(std::string(4096, r % 2 == 0 ? 'a' : 'b'))});
  }
  std::string frame = *EncodeSegment(t);
  const uint64_t page_bytes = SegmentReader::Open(frame)->page_bytes(0);
  ASSERT_EQ(frame[kFirstPageAt], 1) << "not a dictionary page";
  const auto num_values = static_cast<uint32_t>(page_bytes / 2);
  std::memcpy(&frame[kFirstPageAt + 1], &num_values, sizeof(num_values));
  Reseal(&frame);
  Result<SegmentReader> r = SegmentReader::Open(frame);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool decoded = true;
  EXPECT_EQ(LargestRefusedAllocation(size_t{64} << 10,
                                     [&] { decoded = r->Decode().ok(); }),
            0u);
  EXPECT_FALSE(decoded);
}

TEST(SegmentTest, BulkCiphertextDecoderRejectsBlobPastItsPage) {
  // One ciphertext column, no nulls: the page holds the column's scheme,
  // key and flags, the blob lengths as an int64 page, then the blobs up to
  // the page's end. Resealing the lengths so that they sum past the page
  // (or short of it) must be refused by the bulk decoder, whichever way the
  // lengths are packed: frame-of-reference, for uniform blobs at zero bits
  // past the base and for varied ones (edited: the base), or run-length
  // (edited: the first run's value).
  constexpr size_t kLengthsAt = kFirstPageAt + 1 + 8 + 1;
  struct Case {
    const char* name;
    std::function<size_t(size_t)> len_of;
    uint8_t kind;     // the lengths page's: 1 run-length, 2 frame-of-reference
    size_t value_at;  // the edited u64
  };
  const Case cases[] = {
      {"uniform", [](size_t) { return size_t{17}; }, 2, kLengthsAt + 1},
      {"varied", [](size_t r) { return 1 + r % 13; }, 2, kLengthsAt + 1},
      {"two runs", [](size_t r) { return r < 10 ? size_t{1} : size_t{1000}; },
       1, kLengthsAt + 1 + 4}};
  ThreadPool pool(2);
  MorselScheduler two(&pool);
  for (const Case& k : cases) {
    ExecColumn meta;
    meta.attr = 1;
    meta.name = "e";
    meta.encrypted = true;
    Table t({meta});
    for (size_t r = 0; r < 20; ++r) {
      t.AddRow({Cell(EncValue{EncScheme::kRandom, 4,
                              std::string(k.len_of(r), 'x'), 1})});
    }
    const std::string frame = *EncodeSegment(t);
    ASSERT_EQ(frame[kLengthsAt], k.kind) << k.name;
    uint64_t stored;
    std::memcpy(&stored, &frame[k.value_at], sizeof(stored));
    for (int64_t delta : {1, 4096, -1}) {
      std::string mut = frame;
      const uint64_t edited = stored + static_cast<uint64_t>(delta);
      std::memcpy(&mut[k.value_at], &edited, sizeof(edited));
      Reseal(&mut);
      for (MorselScheduler* sched :
           {static_cast<MorselScheduler*>(nullptr), &two}) {
        Result<SegmentReader> sr = SegmentReader::Open(mut, sched);
        ASSERT_TRUE(sr.ok()) << sr.status().ToString();
        EXPECT_FALSE(sr->Decode(sched).ok())
            << k.name << " lengths moved by " << delta << " accepted";
      }
    }
  }

  // A NULL row has no blob: ten NULL rows then ten 1000-byte blobs, two
  // length runs behind a 3-byte null mask. Moving 100 bytes per row from
  // the second run to the first keeps the sum, and is refused all the same.
  ExecColumn meta;
  meta.attr = 1;
  meta.name = "e";
  meta.encrypted = true;
  Table t({meta});
  for (size_t r = 0; r < 20; ++r) {
    t.AddRow({r < 10 ? Cell(Value::Null())
                     : Cell(EncValue{EncScheme::kRandom, 4,
                                     std::string(1000, 'x'), 1})});
  }
  std::string frame = *EncodeSegment(t);
  const size_t runs_at = kFirstPageAt + 3 + 1 + 8 + 1 + 1 + 4;
  const uint64_t moved[2] = {100, 900};
  ASSERT_EQ(frame[runs_at - 5], 1) << "not a run-length page";
  std::memcpy(&frame[runs_at], &moved[0], 8);
  std::memcpy(&frame[runs_at + 8 + 4], &moved[1], 8);
  Reseal(&frame);
  Result<SegmentReader> sr = SegmentReader::Open(frame);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_FALSE(sr->Decode().ok()) << "a NULL row's blob was accepted";
}

TEST(SegmentTest, DetInt64PageCostsWhatTheCostModelPrices) {
  // The cost model prices a DET int64 cell at EncSchemeCiphertextBytes
  // (16 B); a single-key page of N such cells must cost within 1 B of that
  // per cell, give or take its fixed header spread over the N rows.
  constexpr size_t kRows = 15000;
  KeyMaterial km = MakeKeyMaterial(7, 3);
  ExecColumn meta;
  meta.attr = 1;
  meta.name = "o_orderkey";
  meta.encrypted = true;
  meta.scheme = EncScheme::kDeterministic;
  meta.key_id = 3;
  ColumnData d(ColumnRep::kEnc);
  for (size_t r = 0; r < kRows; ++r) {
    d.Append(Cell(*EncryptValue(Value(static_cast<int64_t>(4 * r + 1)),
                                EncScheme::kDeterministic, 3, km, r + 1)));
  }
  Table t;
  t.AddColumn(meta, std::move(d));
  Result<SegmentReader> r = SegmentReader::Open(*EncodeSegment(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto model = static_cast<uint64_t>(
      EncSchemeCiphertextBytes(EncScheme::kDeterministic, 8));
  constexpr uint64_t kPageHeader = 20;  // scheme, key, flags, uniform lengths
  const uint64_t page = r->page_bytes(0);
  EXPECT_LE(page, kRows * (model + 1) + kPageHeader)
      << static_cast<double>(page) / kRows << " B per cell, " << model
      << " B modeled";
  EXPECT_GE(page, kRows * (model - 1));
}

TEST(SegmentTest, ChunkBoundaryWordFlipsAreRejected) {
  // A frame of three full checksum chunks plus a partial tail: a bit flip
  // in the first and in the last word of every chunk is detected, by the
  // inline and the chunk-parallel checksum alike.
  ExecColumn col;
  col.attr = 1;
  col.name = "x";
  col.type = DataType::kDouble;
  std::vector<double> vals(3 * kSegmentChecksumChunk / 8 + 4096);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = 0.5 * static_cast<double>(i);
  }
  ColumnData d;
  d.Adopt(std::move(vals));
  Table t;
  t.AddColumn(col, std::move(d));
  const std::string frame = *EncodeSegment(t);
  const size_t covered = frame.size() - 8;  // the checksum's own range
  ASSERT_GT(covered, 3 * kSegmentChecksumChunk);
  ASSERT_NE(covered % kSegmentChecksumChunk, 0u);
  ThreadPool pool(4);
  MorselScheduler four(&pool);
  ASSERT_EQ(SegmentChecksum(frame.data(), covered, &four),
            SegmentChecksum(frame.data(), covered));
  for (size_t at = 0; at < covered; at += kSegmentChecksumChunk) {
    const size_t end = std::min(at + kSegmentChecksumChunk, covered);
    for (size_t pos : {at, at + 7, end - 8, end - 1}) {
      std::string mut = frame;
      mut[pos] ^= static_cast<char>(1u << (pos % 8));
      for (MorselScheduler* sched :
           {static_cast<MorselScheduler*>(nullptr), &four}) {
        EXPECT_FALSE(SegmentReader::Open(mut, sched).ok())
            << "flip at byte " << pos << " of chunk "
            << at / kSegmentChecksumChunk << " accepted";
      }
    }
  }
}

// ------------------------------------------------------ scheduled codec ---

/// Every regime the scheduled codec must reproduce, by name.
std::vector<std::pair<std::string, Table>> CodecTables() {
  std::vector<std::pair<std::string, Table>> out;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    out.emplace_back("random " + std::to_string(seed), RandomTable(seed));
  }
  out.emplace_back("golden", GoldenTable());
  auto one = [](size_t) { return int64_t{1}; };
  // Large enough to be written as several row blocks.
  out.emplace_back("null-bearing enc",
                   EncTable(10000, EncScheme::kDeterministic, 5,
                            [](size_t) { return uint64_t{7}; }, one));
  out.emplace_back(
      "mixed-key enc",
      EncTable(9000, EncScheme::kDeterministic, 7,
               [](size_t r) { return r > 4500 ? uint64_t{2} : uint64_t{1}; },
               one));
  out.emplace_back("hom aux", EncTable(5000, EncScheme::kPaillier, 0,
                                       [](size_t) { return uint64_t{3}; },
                                       [](size_t r) {
                                         return static_cast<int64_t>(1 + r % 7);
                                       }));
  out.emplace_back("all-null enc",
                   EncTable(50, EncScheme::kRandom, 1,
                            [](size_t) { return uint64_t{2}; }, one));
  {
    ExecColumn meta;
    meta.attr = 1;
    meta.name = "cells";
    std::vector<Cell> cells;
    for (int64_t r = 0; r < 300; ++r) {
      if (r % 4 == 0) {
        cells.push_back(I(r));
      } else if (r % 4 == 1) {
        cells.push_back(S("s" + std::to_string(r)));
      } else if (r % 4 == 2) {
        cells.push_back(Cell(Value::Null()));
      } else {
        cells.push_back(Cell(EncValue{EncScheme::kOpe, 5, "ope", 1}));
      }
    }
    ColumnData d;
    d.Adopt(std::move(cells));
    Table t;
    t.AddColumn(meta, std::move(d));
    out.emplace_back("cells", std::move(t));
  }
  {
    std::vector<ExecColumn> cols(3);
    cols[0].name = "k";
    cols[0].type = DataType::kInt64;
    cols[1].name = "s";
    cols[1].type = DataType::kString;
    cols[2].name = "e";
    cols[2].encrypted = true;
    out.emplace_back("empty", Table(cols));
  }
  {
    Table colless;
    colless.AddRow({});
    colless.AddRow({});
    out.emplace_back("zero columns", std::move(colless));
  }
  return out;
}

TEST(SegmentTest, ScheduledCodecMatchesInlineAtEveryThreadCount) {
  ThreadPool one(1), two(2), eight(8);
  MorselScheduler s1(&one), s2(&two), s8(&eight);
  for (const auto& [name, t] : CodecTables()) {
    Result<std::string> inline_frame = EncodeSegment(t);
    ASSERT_TRUE(inline_frame.ok()) << name;
    Result<SegmentReader> inline_reader = SegmentReader::Open(*inline_frame);
    ASSERT_TRUE(inline_reader.ok()) << name;
    Result<Table> inline_table = inline_reader->Decode();
    ASSERT_TRUE(inline_table.ok()) << name;
    ExpectSameTable(*inline_table, Reappended(t), name + " inline");
    for (MorselScheduler* sched : {&s1, &s2, &s8}) {
      const std::string what =
          name + " at " + std::to_string(sched->pool()->size()) + "t";
      Result<std::string> frame = EncodeSegment(t, sched);
      ASSERT_TRUE(frame.ok()) << what;
      ASSERT_EQ(*frame, *inline_frame) << what;
      Result<SegmentReader> r = SegmentReader::Open(*frame, sched);
      ASSERT_TRUE(r.ok()) << what;
      Result<Table> back = r->Decode(sched);
      ASSERT_TRUE(back.ok()) << what;
      ExpectSameTable(*back, *inline_table, what);
    }
  }
}

// ------------------------------------------------------- zone-map scans ---

class SegmentExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    hosp_ = BigHosp(4000);
    ins_ = BigIns(3000);
  }

  /// Hosp-shaped (S int, B int, D string, T string) with S ascending — so
  /// row-range segments partition the key space and range predicates on S
  /// can prune — B noisy with nulls, D dictionary-friendly.
  Table BigHosp(size_t rows) {
    Rng rng(99);
    Table t = MakeBaseTable(ex_->catalog.Get(ex_->hosp));
    for (size_t r = 0; r < rows; ++r) {
      Cell b = rng.Chance(0.05)
                   ? Cell(Value::Null())
                   : I(1900 + static_cast<int64_t>(rng.Uniform(120)));
      t.AddRow({I(static_cast<int64_t>(r)), b,
                S("d" + std::to_string(rng.Uniform(6))),
                S("t" + std::to_string(rng.Uniform(3)))});
    }
    return t;
  }

  /// Ins-shaped (C int, P double) with duplicate keys overlapping BigHosp's
  /// low key range.
  Table BigIns(size_t rows) {
    Rng rng(177);
    Table t = MakeBaseTable(ex_->catalog.Get(ex_->ins));
    for (size_t r = 0; r < rows; ++r) {
      t.AddRow({I(static_cast<int64_t>(rng.Uniform(700))),
                D(rng.NextDouble() * 100)});
    }
    return t;
  }

  PlanPtr Finish(PlanPtr p) {
    return std::move(FinishPlan(std::move(p), ex_->catalog)).value();
  }

  /// Executes `p` with both relations materialized in memory.
  Result<Table> RunInMemory(const PlanNode* p, ThreadPool* pool,
                            uint64_t budget = 0, ExecContext* out = nullptr) {
    ExecContext local;
    ExecContext* ctx = out != nullptr ? out : &local;
    ctx->catalog = &ex_->catalog;
    ctx->base_tables[ex_->hosp] = &hosp_;
    ctx->base_tables[ex_->ins] = &ins_;
    MorselScheduler sched(pool);
    ctx->morsels = &sched;
    ctx->memory_budget = budget;
    Result<Table> t = ExecutePlan(p, ctx);
    ctx->morsels = nullptr;  // `sched` dies with this frame
    return t;
  }

  std::unique_ptr<PaperExample> ex_;
  Table hosp_, ins_;
};

TEST_F(SegmentExecTest, ZoneMapScanSkipsSegmentsAndMatchesFullScan) {
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 256);
  ASSERT_TRUE(st.ok());

  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("S", CmpOp::kLt, Value(int64_t{300}))}));

  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.base_tables[ex_->ins] = &ins_;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();

  EXPECT_EQ(CanonicalRows(*pruned), CanonicalRows(*full));
  // S ascending over 4000 rows at 256 rows/segment: only the first two
  // segments can hold S < 300.
  EXPECT_EQ(ctx.segments_scanned.load(), st->num_segments());
  EXPECT_GE(ctx.segments_skipped.load(), st->num_segments() - 2);

  // Every skipped segment provably holds no qualifying row.
  for (size_t s = 0; s < st->num_segments(); ++s) {
    const SegmentReader& seg = st->segment(s);
    size_t s_col = 0;  // S is column 0
    if (ZoneMayMatch(seg.zone(s_col), CmpOp::kLt, Value(int64_t{300}))) {
      continue;
    }
    Result<Table> dec = seg.Decode();
    ASSERT_TRUE(dec.ok());
    for (size_t r = 0; r < dec->num_rows(); ++r) {
      Value v = dec->col(s_col).IsNull(r) ? Value::Null()
                                          : dec->col(s_col).GetValue(r);
      EXPECT_FALSE(EvalCmp(CmpOp::kLt, v, Value(int64_t{300})))
          << "segment " << s << " row " << r
          << " was skipped but satisfies the predicate";
    }
  }
}

TEST_F(SegmentExecTest, ZoneMapScanIsBitIdenticalAtEveryThreadCount) {
  // Surviving segments decode as morsels (segment i is morsel i) and merge
  // in segment order, so the scan is bit-identical at any thread count.
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 256);
  ASSERT_TRUE(st.ok());
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("S", CmpOp::kLt, Value(int64_t{2100}))}));
  std::string want;
  ThreadPool two(2), eight(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
    ExecContext ctx;
    ctx.catalog = &ex_->catalog;
    ctx.segment_tables[ex_->hosp] = &*st;
    MorselScheduler sched(pool);
    ctx.morsels = &sched;
    Result<Table> scanned = ExecutePlan(p.get(), &ctx);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    ASSERT_GT(scanned->num_rows(), 0u);
    EXPECT_GT(ctx.segments_skipped.load(), 0u);
    if (pool == nullptr) {
      want = scanned->SerializeColumns();
      continue;
    }
    EXPECT_EQ(scanned->SerializeColumns(), want)
        << "zone-map scan diverges at " << pool->size() << " threads";
  }
}

TEST_F(SegmentExecTest, FullyPrunedScanYieldsTheEmptyResultShape) {
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 512);
  ASSERT_TRUE(st.ok());
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("S", CmpOp::kGt, Value(int64_t{999999}))}));

  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->num_rows(), 0u);

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->SerializeColumns(), full->SerializeColumns());
  EXPECT_EQ(ctx.segments_skipped.load(), st->num_segments());
}

TEST_F(SegmentExecTest, NullMatchingPredicatesAreNeverPrunedWrongly) {
  // B has NULLs; under the engine's semantics NULL < any number, so kLt
  // predicates match NULL rows and zone pruning must keep such segments.
  Result<SegmentedTable> st = SegmentedTable::FromTable(hosp_, 128);
  ASSERT_TRUE(st.ok());
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Select(b.Rel("Hosp"), {b.Pv("B", CmpOp::kLt, Value(int64_t{1901}))}));
  Result<Table> full = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_rows(), 0u);  // NULL rows qualify

  ExecContext ctx;
  ctx.catalog = &ex_->catalog;
  ctx.segment_tables[ex_->hosp] = &*st;
  Result<Table> pruned = ExecutePlan(p.get(), &ctx);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(CanonicalRows(*pruned), CanonicalRows(*full));
}

// ------------------------------------------------------------- spilling ---

TEST_F(SegmentExecTest, SpilledJoinIsBitIdenticalAtEveryThreadCount) {
  PlanBuilder b = ex_->builder();
  PlanPtr p = Finish(
      Join(b.Rel("Hosp"), b.Rel("Ins"), {b.Pa("S", CmpOp::kEq, "C")}));

  Result<Table> in_memory = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_GT(in_memory->num_rows(), 0u);
  const std::string want = in_memory->SerializeColumns();

  // Row-path oracle agreement (order-insensitive).
  ReferenceExecutor oracle(&ex_->catalog);
  oracle.LoadTable(ex_->hosp, &hosp_);
  oracle.LoadTable(ex_->ins, &ins_);
  Result<Table> ref = oracle.Run(p.get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(CanonicalRows(*in_memory), CanonicalRows(*ref));

  ThreadPool two(2), eight(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
    // ~110 KB of inputs against a 4 KB budget: first-generation partitions
    // (~1/8 each) still exceed it, forcing a second recursive generation.
    ExecContext ctx;
    Result<Table> spilled = RunInMemory(p.get(), pool, 4096, &ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_EQ(spilled->SerializeColumns(), want)
        << "spilled join diverges at "
        << (pool == nullptr ? 1 : pool->size()) << " threads";
    EXPECT_GT(ctx.spill_partitions.load(), 0u);
    EXPECT_GT(ctx.spill_bytes.load(), 0u);
    EXPECT_GE(ctx.spill_generations.load(), 2u)
        << "budget did not force a recursive partition generation";
  }
}

TEST_F(SegmentExecTest, SpilledGroupByIsBitIdenticalAtEveryThreadCount) {
  PlanBuilder b = ex_->builder();
  // Double-valued aggregates over many multi-batch groups: the spilled
  // path must reproduce the in-memory floating-point merge association
  // exactly, not approximately.
  PlanPtr p = Finish(GroupBy(b.Rel("Ins"), b.Set("C"),
                             {Aggregate::Make(AggFunc::kSum, b.A("P")),
                              Aggregate::Make(AggFunc::kAvg, b.A("P")),
                              Aggregate::CountStar(b.A("C"))}));

  Result<Table> in_memory = RunInMemory(p.get(), nullptr);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_GT(in_memory->num_rows(), 0u);
  const std::string want = in_memory->SerializeColumns();

  ReferenceExecutor oracle(&ex_->catalog);
  oracle.LoadTable(ex_->hosp, &hosp_);
  oracle.LoadTable(ex_->ins, &ins_);
  Result<Table> ref = oracle.Run(p.get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(CanonicalRows(*in_memory), CanonicalRows(*ref));

  ThreadPool two(2), eight(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
    ExecContext ctx;
    Result<Table> spilled = RunInMemory(p.get(), pool, 1024, &ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_EQ(spilled->SerializeColumns(), want)
        << "spilled group-by diverges at "
        << (pool == nullptr ? 1 : pool->size()) << " threads";
    EXPECT_GT(ctx.spill_partitions.load(), 0u);
  }
}

TEST(SegmentDifferentialTest, SpilledRandomPlansMatchOracleAndInMemory) {
  // Random-scenario sweep with a 1-byte budget: every join build and
  // group-by state that can spill does. Results must equal both the
  // in-memory engine (bit-identical serialization) and the row oracle at
  // 1/2/8 threads.
  ThreadPool two(2), eight(8);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Result<RandomScenario> sc = MakeRandomScenario(seed);
    ASSERT_TRUE(sc.ok()) << "seed " << seed;
    std::map<RelId, Table> data = MakeRandomData(*sc, seed ^ 0xfeed);

    ReferenceExecutor oracle(sc->catalog.get());
    for (const auto& [rel, t] : data) oracle.LoadTable(rel, &t);
    Result<Table> ref = oracle.Run(sc->plan.get());
    ASSERT_TRUE(ref.ok()) << "seed " << seed;
    std::vector<std::string> oracle_rows = CanonicalRows(*ref);

    ExecContext base_ctx;
    base_ctx.catalog = sc->catalog.get();
    for (const auto& [rel, t] : data) base_ctx.base_tables[rel] = &t;
    Result<Table> in_memory = ExecutePlan(sc->plan.get(), &base_ctx);
    ASSERT_TRUE(in_memory.ok()) << "seed " << seed;
    const std::string want = in_memory->SerializeColumns();

    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &two, &eight}) {
      ExecContext ctx;
      ctx.catalog = sc->catalog.get();
      for (const auto& [rel, t] : data) ctx.base_tables[rel] = &t;
      MorselScheduler sched(pool);
      ctx.morsels = &sched;
      ctx.memory_budget = 1;
      Result<Table> spilled = ExecutePlan(sc->plan.get(), &ctx);
      ASSERT_TRUE(spilled.ok())
          << "seed " << seed << ": " << spilled.status().ToString();
      ASSERT_EQ(spilled->SerializeColumns(), want)
          << "seed " << seed << ": spilled run not bit-identical at "
          << (pool == nullptr ? 1 : pool->size()) << " threads";
      ASSERT_EQ(CanonicalRows(*spilled), oracle_rows)
          << "seed " << seed << ": spilled run diverges from the oracle";
    }
  }
}

}  // namespace
}  // namespace mpq
