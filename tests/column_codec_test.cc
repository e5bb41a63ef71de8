// Tests for the column-level crypto codec: span encryption/decryption over
// the column representations the engine produces (typed vectors, null
// masks, the kCell fallback, pure ciphertext columns), the fold-only mode a
// provider holding just the public modulus gets, the lazy fold primitive
// against the eager Add() chain, and the ciphertext bytes span encryption
// writes into a column's arena, pinned at 1/2/8 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/column_codec.h"
#include "crypto/keyring.h"
#include "exec/column.h"
#include "exec/morsel.h"
#include "storage/segment.h"

namespace mpq {
namespace {

KeyMaterial TestKey() { return MakeKeyMaterial(/*seed=*/77, /*key_id=*/4); }

/// Encrypts every row of `src` into a fresh kEnc column in one span.
Result<ColumnData> EncryptAll(const ColumnCodec& codec, const ColumnData& src,
                              EncScheme scheme, uint64_t nonce_base) {
  MPQ_ASSIGN_OR_RETURN(EncArena arena, codec.SizeEncrypt(src, scheme));
  MPQ_RETURN_NOT_OK(
      codec.EncryptSpan(src, 0, src.size(), scheme, nonce_base, &arena));
  ColumnData out;
  out.Adopt(std::move(arena));
  return out;
}

/// Paillier-encrypts `values` through the codec into a kEnc column.
ColumnData EncryptColumn(const ColumnCodec& codec,
                         const std::vector<int64_t>& values,
                         uint64_t nonce_base) {
  std::vector<Cell> cells;
  cells.reserve(values.size());
  for (int64_t v : values) cells.emplace_back(Value(v));
  ColumnData plain = ColumnFromCells(std::move(cells));
  Result<EncArena> arena = codec.SizeEncrypt(plain, EncScheme::kPaillier);
  EXPECT_TRUE(arena.ok());
  EXPECT_TRUE(codec.EncryptSpan(plain, 0, plain.size(), EncScheme::kPaillier,
                                nonce_base, &*arena)
                  .ok());
  ColumnData out;
  out.Adopt(std::move(*arena));
  return out;
}

TEST(ColumnCodecTest, ZeroRowSpansAreNoOps) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  ColumnData empty = ColumnFromCells({});
  Result<ColumnData> enc = EncryptAll(codec, empty, EncScheme::kPaillier, 1);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->size(), 0u);
  ColumnData dec;
  EXPECT_TRUE(
      codec.DecryptSpan(empty, 0, 0, DataType::kInt64, false, &dec).ok());
  EXPECT_EQ(dec.size(), 0u);
  Result<uint128> fold = codec.FoldRows(empty, nullptr, 0);
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(*fold, uint128{0});
}

TEST(ColumnCodecTest, NullMaskSkipsDecryptionAndFastEncryptPath) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  // A column with a null forfeits the typed Paillier fast path; DET
  // serializes the null like the per-cell path always has.
  std::vector<Cell> cells;
  cells.emplace_back(Value(int64_t{10}));
  cells.emplace_back(Value::Null());
  cells.emplace_back(Value(int64_t{-3}));
  ColumnData plain = ColumnFromCells(std::move(cells));
  Result<ColumnData> enc =
      EncryptAll(codec, plain, EncScheme::kDeterministic, 5);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  std::vector<EncValue> encs;
  for (size_t i = 0; i < plain.size(); ++i) {
    Cell c = plain.GetCell(i);
    Result<EncValue> single =
        EncryptValue(c.plain(), EncScheme::kDeterministic, 4, km, 5 + i);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(enc->EncAt(i).ToValue(), *single) << "cell " << i;
    encs.push_back(*single);
  }
  // The encrypted NULL decrypts to a NULL in the typed output's mask.
  ColumnData enc_col = ColumnFromEnc(encs);
  ColumnData out(ColumnRep::kInt64);
  ASSERT_TRUE(codec.DecryptSpan(enc_col, 0, enc_col.size(), DataType::kInt64,
                                false, &out)
                  .ok());
  ASSERT_EQ(out.rep(), ColumnRep::kInt64);
  EXPECT_EQ(out.GetValue(0), Value(int64_t{10}));
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_EQ(out.GetValue(2), Value(int64_t{-3}));
}

TEST(ColumnCodecTest, CellFallbackPassesPlainCellsThrough) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  // A mixed column (ciphertexts with a stray plaintext cell) takes the
  // kCell representation; DecryptSpan decrypts the ciphertexts and passes
  // the plaintext through untouched.
  Result<EncValue> ev =
      EncryptValue(Value(int64_t{42}), EncScheme::kPaillier, 4, km, 9);
  ASSERT_TRUE(ev.ok());
  std::vector<Cell> cells;
  cells.emplace_back(*ev);
  cells.emplace_back(Value(int64_t{1234}));
  ColumnData mixed = ColumnFromCells(std::move(cells));
  ASSERT_EQ(mixed.rep(), ColumnRep::kCell);
  ColumnData out(ColumnRep::kInt64);
  ASSERT_TRUE(codec.DecryptSpan(mixed, 0, mixed.size(), DataType::kInt64,
                                false, &out)
                  .ok());
  ASSERT_EQ(out.rep(), ColumnRep::kInt64);
  EXPECT_EQ(out.GetValue(0), Value(int64_t{42}));
  EXPECT_EQ(out.GetValue(1), Value(int64_t{1234}));
}

TEST(ColumnCodecTest, DecryptSpanDividesHomAverages) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  Result<EncValue> ev =
      EncryptValue(Value(int64_t{90}), EncScheme::kPaillier, 4, km, 11);
  ASSERT_TRUE(ev.ok());
  EncValue sum = *ev;
  sum.aux = 4;  // four values folded into the ciphertext
  ColumnData col = ColumnFromEnc({sum});
  ColumnData out(ColumnRep::kDouble);
  ASSERT_TRUE(
      codec.DecryptSpan(col, 0, 1, DataType::kInt64, true, &out).ok());
  ASSERT_EQ(out.rep(), ColumnRep::kDouble);
  EXPECT_DOUBLE_EQ(out.f64()[0], 22.5);
}

TEST(ColumnCodecTest, FoldRowsMatchesEagerAddChainAndIsReusable) {
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  ColumnData col = EncryptColumn(codec, {3, 1, 4, 1, 5, 9, 2, 6}, 100);
  PaillierSumCtx eager(km.paillier.n);
  // An arbitrary row subset, folded in the given order.
  const std::vector<uint32_t> rows = {6, 0, 3, 7, 2};
  uint128 chain = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint128 c = *PaillierCipherFromBytes(col.EncAt(rows[i]).blob);
    chain = i == 0 ? c : eager.Add(chain, c);
  }
  Result<uint128> fold = codec.FoldRows(col, rows.data(), rows.size());
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(*fold, chain);
  int64_t decoded = PaillierDecodeSigned(
      km.paillier, *PaillierDecrypt(km.paillier, *fold));
  EXPECT_EQ(decoded, 3 + 4 + 1 + 2 + 6);
  // The codec's fold state resets per call: a second, different fold on the
  // same codec is unaffected by the first.
  const std::vector<uint32_t> rows2 = {1, 4};
  uint128 c1 = *PaillierCipherFromBytes(col.EncAt(1).blob);
  uint128 c4 = *PaillierCipherFromBytes(col.EncAt(4).blob);
  Result<uint128> fold2 = codec.FoldRows(col, rows2.data(), rows2.size());
  ASSERT_TRUE(fold2.ok());
  EXPECT_EQ(*fold2, eager.Add(c1, c4));
}

TEST(ColumnCodecTest, FoldOnlyCodecAggregatesButRefusesKeyOperations) {
  KeyMaterial km = TestKey();
  ColumnCodec full(km);
  ColumnData col = EncryptColumn(full, {20, 30, -8}, 500);
  // The provider-side codec holds only (key id, public modulus) — the
  // paper's honest-but-curious provider: it can aggregate ciphertexts but
  // cannot encrypt or decrypt anything.
  ColumnCodec fold_only(/*key_id=*/4, km.paillier.n);
  EXPECT_FALSE(fold_only.has_material());
  EXPECT_EQ(fold_only.key_id(), uint64_t{4});
  const uint32_t rows[] = {0, 1, 2};
  Result<uint128> fold = fold_only.FoldRows(col, rows, 3);
  ASSERT_TRUE(fold.ok());
  Result<uint128> want = full.FoldRows(col, rows, 3);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*fold, *want);
  EXPECT_EQ(PaillierDecodeSigned(km.paillier,
                                 *PaillierDecrypt(km.paillier, *fold)),
            42);

  ColumnData plain = ColumnFromCells({Cell(Value(int64_t{1}))});
  Result<ColumnData> enc =
      EncryptAll(fold_only, plain, EncScheme::kPaillier, 1);
  EXPECT_EQ(enc.status().code(), StatusCode::kNotFound);
  ColumnData out;
  Status dec_st =
      fold_only.DecryptSpan(col, 0, col.size(), DataType::kInt64, false, &out);
  EXPECT_EQ(dec_st.code(), StatusCode::kNotFound);
}

// ------------------------------------------------ span ciphertext KAT ---

constexpr size_t kKatRows = 300;

/// The KAT's plaintext columns: int64, int64 with NULLs, double, string
/// with NULLs (empty strings included), a kCell column mixing ints,
/// doubles, strings and NULLs, and a numeric-only kCell column.
ColumnData KatColumn(int which) {
  switch (which) {
    case 0: {
      ColumnData d(ColumnRep::kInt64);
      for (size_t r = 0; r < kKatRows; ++r) {
        d.AppendValue(Value(static_cast<int64_t>(r * 7919) - 50000));
      }
      return d;
    }
    case 1: {
      ColumnData d(ColumnRep::kInt64);
      for (size_t r = 0; r < kKatRows; ++r) {
        if (r % 5 == 3) {
          d.AppendNull();
        } else {
          d.AppendValue(Value(static_cast<int64_t>(r) - 150));
        }
      }
      return d;
    }
    case 2: {
      ColumnData d(ColumnRep::kDouble);
      for (size_t r = 0; r < kKatRows; ++r) {
        d.AppendValue(Value(static_cast<double>(r) * 0.37 - 11.0));
      }
      return d;
    }
    case 3: {
      ColumnData d(ColumnRep::kString);
      for (size_t r = 0; r < kKatRows; ++r) {
        if (r % 7 == 2) {
          d.AppendNull();
        } else {
          d.AppendValue(
              Value(std::string(r % 23, static_cast<char>('a' + r % 26))));
        }
      }
      return d;
    }
    case 4: {
      ColumnData d(ColumnRep::kCell);
      for (size_t r = 0; r < kKatRows; ++r) {
        switch (r % 4) {
          case 0:
            d.Append(Cell(Value(static_cast<int64_t>(r))));
            break;
          case 1:
            d.Append(Cell(Value(static_cast<double>(r) / 8)));
            break;
          case 2:
            d.Append(Cell(Value("m" + std::to_string(r))));
            break;
          default:
            d.Append(Cell(Value::Null()));
        }
      }
      return d;
    }
    default: {
      ColumnData d(ColumnRep::kCell);
      for (size_t r = 0; r < kKatRows; ++r) {
        if (r % 2 == 0) {
          d.Append(Cell(Value(static_cast<int64_t>(r) * 3 - 400)));
        } else {
          d.Append(Cell(Value(static_cast<double>(r) * -1.25)));
        }
      }
      return d;
    }
  }
}

/// FNV-1a over every row's (scheme, key id, aux, blob length, blob).
uint64_t ArenaDigest(const EncArena& a) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < a.size(); ++i) {
    EncView ev = a.At(i);
    uint8_t scheme = static_cast<uint8_t>(ev.scheme);
    uint32_t len = static_cast<uint32_t>(ev.blob.size());
    mix(&scheme, 1);
    mix(&ev.key_id, 8);
    mix(&ev.aux, 8);
    mix(&len, 4);
    mix(ev.blob.data(), len);
  }
  return h;
}

TEST(ColumnCodecTest, SpanCiphertextsArePinnedAtEveryThreadCount) {
  // Digests pinned from the per-cell codec the flat arena replaced
  // (EncryptSpan writing one EncValue per row): every scheme over every
  // column shape must write the very same bytes, whatever the morsel
  // partition runs on. 0 marks a column the scheme cannot encrypt.
  const uint64_t kPinned[6][4] = {
      {15962977317186130567ull, 15238898237113122074ull,
       16909794784077013509ull, 17905779046286892818ull},
      {11167767999311863143ull, 13264259549386093707ull, 0, 0},
      {16884769757898191321ull, 935209544798655579ull,
       11168060389519506829ull, 15318624380300550522ull},
      {1736448212480002079ull, 10387455824003644962ull, 0, 0},
      {17821032979625691280ull, 15900493384255678266ull, 0, 0},
      {10901226422083711217ull, 13896446220293998844ull,
       8571916552981256400ull, 13710025310285387072ull},
  };
  KeyMaterial km = TestKey();
  KeyMaterial schoolbook = km;
  schoolbook.hom_precomp = nullptr;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    MorselScheduler sched(&pool);
    // The Paillier schoolbook path is slow; once is enough.
    for (const KeyMaterial* key : {&km, &schoolbook}) {
      if (key == &schoolbook && threads != 1) continue;
      ColumnCodec codec(*key);
      for (int c = 0; c < 6; ++c) {
        ColumnData src = KatColumn(c);
        for (int s = 0; s < 4; ++s) {
          auto scheme = static_cast<EncScheme>(s);
          Result<EncArena> arena = codec.SizeEncrypt(src, scheme);
          ASSERT_TRUE(arena.ok());
          Status st = sched.Run(src.size(), /*grain=*/37,
                                [&](size_t begin, size_t end) {
                                  return codec.EncryptSpan(
                                      src, begin, end, scheme, 0x5eed,
                                      &*arena);
                                });
          std::string where = "column " + std::to_string(c) + " " +
                              EncSchemeName(scheme) + " at " +
                              std::to_string(threads) + "t";
          if (kPinned[c][s] == 0) {
            EXPECT_EQ(st.code(), StatusCode::kUnsupported) << where;
            continue;
          }
          ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
          EXPECT_EQ(ArenaDigest(*arena), kPinned[c][s]) << where;
          EXPECT_FALSE(arena->mixed_keys()) << where;
        }
      }
    }
  }
}

TEST(ColumnCodecTest, OverlongPaillierBlobsAreRejected) {
  // A HOM ciphertext is exactly 16 bytes; one byte more — as an untrusted
  // frame may carry — must fail, not decrypt or fold its first 16 bytes.
  KeyMaterial km = TestKey();
  ColumnCodec codec(km);
  Result<EncValue> ev =
      EncryptValue(Value(int64_t{7}), EncScheme::kPaillier, 4, km, 3);
  ASSERT_TRUE(ev.ok());
  EncValue overlong = *ev;
  overlong.blob.push_back('\x01');
  ASSERT_EQ(overlong.blob.size(), 17u);

  EXPECT_TRUE(DecryptValue(*ev, km, DataType::kInt64).ok());
  EXPECT_FALSE(DecryptValue(overlong, km, DataType::kInt64).ok());

  ColumnData col = ColumnFromEnc({*ev, overlong});
  const uint32_t rows[] = {0, 1};
  EXPECT_TRUE(codec.FoldRows(col, rows, 1).ok());
  EXPECT_FALSE(codec.FoldRows(col, rows, 2).ok());

  // Through the segment wire: the frame carries the blob as is, and the
  // receiver's decrypt refuses it.
  ExecColumn meta;
  meta.name = "hom";
  meta.encrypted = true;
  meta.scheme = EncScheme::kPaillier;
  meta.key_id = 4;
  Table t;
  t.AddColumn(meta, std::move(col));
  Result<std::string> frame = EncodeSegment(t);
  ASSERT_TRUE(frame.ok());
  Result<SegmentReader> reader = SegmentReader::Open(*frame);
  ASSERT_TRUE(reader.ok());
  Result<Table> back = reader->Decode();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->col(0).EncAt(1).blob.size(), 17u);
  ColumnData out;
  EXPECT_TRUE(
      codec.DecryptSpan(back->col(0), 0, 1, DataType::kInt64, false, &out)
          .ok());
  EXPECT_FALSE(
      codec.DecryptSpan(back->col(0), 1, 2, DataType::kInt64, false, &out)
          .ok());
}

}  // namespace
}  // namespace mpq
