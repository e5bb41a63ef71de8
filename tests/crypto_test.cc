// Tests for the crypto substrate: symmetric cipher, Paillier, OPE, key
// material and encrypted-cell operations.

#include <gtest/gtest.h>

#include "crypto/cipher.h"
#include "crypto/column_codec.h"
#include "crypto/enc_value.h"
#include "crypto/keyring.h"
#include "crypto/ope.h"
#include "crypto/paillier.h"
#include "exec/column.h"

namespace mpq {
namespace {

TEST(CipherTest, RoundTrip) {
  std::string pt = "hello world";
  std::string ct = SymEncrypt(42, 7, pt);
  EXPECT_NE(ct.substr(8), pt);
  Result<std::string> back = SymDecrypt(42, ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(CipherTest, DeterministicEqualityPreserving) {
  EXPECT_EQ(DetEncrypt(1, "abc"), DetEncrypt(1, "abc"));
  EXPECT_NE(DetEncrypt(1, "abc"), DetEncrypt(1, "abd"));
  EXPECT_NE(DetEncrypt(1, "abc"), DetEncrypt(2, "abc"));
}

TEST(CipherTest, RandomizedHidesEquality) {
  EXPECT_NE(RndEncrypt(1, 100, "abc"), RndEncrypt(1, 101, "abc"));
}

TEST(CipherTest, WrongKeyGarbles) {
  std::string ct = DetEncrypt(1, "abc");
  Result<std::string> wrong = SymDecrypt(2, ct);
  ASSERT_TRUE(wrong.ok());  // stream cipher always "decrypts"
  EXPECT_NE(*wrong, "abc");
}

TEST(CipherTest, ShortCiphertextRejected) {
  EXPECT_FALSE(SymDecrypt(1, "abc").ok());
}

class PaillierTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  PaillierKey key = PaillierKeyGen(GetParam());
  for (uint64_t m : {0ull, 1ull, 12345ull, 999999999ull}) {
    uint128 c = PaillierEncrypt(key, m, 0xabcdef + m);
    Result<uint64_t> back = PaillierDecrypt(key, c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
}

TEST_P(PaillierTest, HomomorphicAddition) {
  PaillierKey key = PaillierKeyGen(GetParam());
  uint128 c1 = PaillierEncrypt(key, 1000, 17);
  uint128 c2 = PaillierEncrypt(key, 2345, 23);
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(*PaillierDecrypt(key, sum), 3345u);
}

TEST_P(PaillierTest, SignedEncoding) {
  PaillierKey key = PaillierKeyGen(GetParam());
  for (int64_t v : {-1000000, -1, 0, 1, 999999}) {
    uint64_t enc = PaillierEncodeSigned(key, v);
    EXPECT_EQ(PaillierDecodeSigned(key, enc), v);
  }
}

TEST_P(PaillierTest, HomomorphicSignedSum) {
  PaillierKey key = PaillierKeyGen(GetParam());
  uint128 c1 = PaillierEncrypt(key, PaillierEncodeSigned(key, -500), 3);
  uint128 c2 = PaillierEncrypt(key, PaillierEncodeSigned(key, 200), 5);
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(PaillierDecodeSigned(key, *PaillierDecrypt(key, sum)), -300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaillierTest,
                         ::testing::Values(1, 2, 7, 42, 1234567));

TEST(PaillierTest, RandomizedCiphertexts) {
  PaillierKey key = PaillierKeyGen(9);
  EXPECT_NE(PaillierEncrypt(key, 5, 100), PaillierEncrypt(key, 5, 101));
}

TEST(PaillierTest, CipherBytesRoundTrip) {
  PaillierKey key = PaillierKeyGen(3);
  uint128 c = PaillierEncrypt(key, 777, 11);
  std::string bytes = PaillierCipherToBytes(c);
  EXPECT_EQ(bytes.size(), 16u);
  EXPECT_EQ(*PaillierCipherFromBytes(bytes), c);
  EXPECT_FALSE(PaillierCipherFromBytes("short").ok());
}

TEST(OpeTest, OrderPreservation) {
  uint64_t key = 99;
  std::vector<int64_t> values = {-1000000, -5, -1, 0, 1, 2, 3, 1000,
                                 123456789};
  std::vector<std::string> cts;
  for (int64_t v : values) cts.push_back(OpeEncryptInt(key, v));
  for (size_t i = 0; i + 1 < cts.size(); ++i) {
    EXPECT_LT(cts[i], cts[i + 1]) << "order broken at " << i;
  }
}

TEST(OpeTest, RoundTripAndKeyCheck) {
  EXPECT_EQ(*OpeDecryptInt(5, OpeEncryptInt(5, -42)), -42);
  // Wrong key: the PRF pad will not match.
  EXPECT_FALSE(OpeDecryptInt(6, OpeEncryptInt(5, -42)).ok());
  EXPECT_FALSE(OpeDecryptInt(5, "bad").ok());
}

TEST(OpeTest, DoubleFixedPoint) {
  uint64_t key = 3;
  Result<std::string> ct = OpeEncryptValue(key, Value(12.3456));
  ASSERT_TRUE(ct.ok());
  Result<Value> back = OpeDecryptValue(key, *ct, DataType::kDouble);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->AsDouble(), 12.3456, 1e-3);
  EXPECT_FALSE(OpeEncryptValue(key, Value(std::string("x"))).ok());
}

TEST(KeyringTest, DistributionEnforcement) {
  KeyRing ring;
  EXPECT_FALSE(ring.Get(1).ok());
  ring.Add(MakeKeyMaterial(77, 1));
  ASSERT_TRUE(ring.Get(1).ok());
  EXPECT_EQ(ring.Get(1)->key_id, 1u);
  EXPECT_EQ(ring.Get(2).status().code(), StatusCode::kNotFound);
}

TEST(KeyringTest, MaterialIsDeterministicPerSeed) {
  KeyMaterial a = MakeKeyMaterial(7, 3);
  KeyMaterial b = MakeKeyMaterial(7, 3);
  EXPECT_EQ(a.sym, b.sym);
  EXPECT_EQ(a.ope, b.ope);
  EXPECT_EQ(a.paillier.n, b.paillier.n);
  KeyMaterial c = MakeKeyMaterial(8, 3);
  EXPECT_NE(a.sym, c.sym);
}

class EncValueTest : public ::testing::Test {
 protected:
  KeyMaterial km_ = MakeKeyMaterial(11, 1);
};

TEST_F(EncValueTest, RoundTripAllSchemes) {
  Value v(int64_t{1234});
  for (EncScheme s : {EncScheme::kRandom, EncScheme::kDeterministic,
                      EncScheme::kOpe, EncScheme::kPaillier}) {
    Result<EncValue> ev = EncryptValue(v, s, 1, km_, 555);
    ASSERT_TRUE(ev.ok()) << EncSchemeName(s);
    Result<Value> back = DecryptValue(*ev, km_, DataType::kInt64);
    ASSERT_TRUE(back.ok()) << EncSchemeName(s);
    EXPECT_EQ(*back, v) << EncSchemeName(s);
  }
}

TEST_F(EncValueTest, PaillierDoubleRoundTrip) {
  Result<EncValue> ev =
      EncryptValue(Value(123.45), EncScheme::kPaillier, 1, km_, 9);
  ASSERT_TRUE(ev.ok());
  Result<Value> back = DecryptValue(*ev, km_, DataType::kDouble);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->AsDouble(), 123.45, 1e-3);
}

TEST_F(EncValueTest, DetSupportsOnlyEquality) {
  Cell a(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell b(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 2));
  Cell c(
      *EncryptValue(Value(int64_t{2}), EncScheme::kDeterministic, 1, km_, 3));
  EXPECT_TRUE(*CompareCells(CmpOp::kEq, a, b));
  EXPECT_TRUE(*CompareCells(CmpOp::kNe, a, c));
  EXPECT_FALSE(CompareCells(CmpOp::kLt, a, c).ok());
}

TEST_F(EncValueTest, OpeSupportsOrder) {
  Cell a(*EncryptValue(Value(int64_t{5}), EncScheme::kOpe, 1, km_, 1));
  Cell b(*EncryptValue(Value(int64_t{9}), EncScheme::kOpe, 1, km_, 2));
  EXPECT_TRUE(*CompareCells(CmpOp::kLt, a, b));
  EXPECT_TRUE(*CompareCells(CmpOp::kGe, b, a));
  EXPECT_TRUE(*CompareCells(CmpOp::kNe, a, b));
}

TEST_F(EncValueTest, RndAndHomNotComparable) {
  Cell a(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 1));
  Cell b(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 2));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, b).ok());
  Cell c(*EncryptValue(Value(int64_t{1}), EncScheme::kPaillier, 1, km_, 3));
  Cell d(*EncryptValue(Value(int64_t{1}), EncScheme::kPaillier, 1, km_, 4));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, c, d).ok());
}

TEST_F(EncValueTest, CrossKeyAndMixedComparisonsRejected) {
  KeyMaterial other = MakeKeyMaterial(11, 2);
  Cell a(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell b(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 2, other, 1));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, b).ok());
  Cell plain(Value(int64_t{1}));
  EXPECT_FALSE(CompareCells(CmpOp::kEq, a, plain).ok());
}

TEST_F(EncValueTest, GroupKeysForDetAndOpeOnly) {
  Cell det(
      *EncryptValue(Value(int64_t{1}), EncScheme::kDeterministic, 1, km_, 1));
  Cell ope(*EncryptValue(Value(int64_t{1}), EncScheme::kOpe, 1, km_, 1));
  Cell rnd(*EncryptValue(Value(int64_t{1}), EncScheme::kRandom, 1, km_, 1));
  EXPECT_TRUE(CellGroupKey(det).ok());
  EXPECT_TRUE(CellGroupKey(ope).ok());
  EXPECT_FALSE(CellGroupKey(rnd).ok());
  EXPECT_TRUE(CellGroupKey(Cell(Value(int64_t{1}))).ok());
}

TEST_F(EncValueTest, SchemeCostsOrdered) {
  EXPECT_LT(EncSchemeCpuMicros(EncScheme::kDeterministic),
            EncSchemeCpuMicros(EncScheme::kOpe));
  EXPECT_LT(EncSchemeCpuMicros(EncScheme::kOpe),
            EncSchemeCpuMicros(EncScheme::kPaillier));
  EXPECT_GT(EncSchemeCiphertextBytes(EncScheme::kDeterministic, 8), 8);
}

TEST_F(EncValueTest, ToStringTagsScheme) {
  EncValue ev = *EncryptValue(Value(int64_t{1}), EncScheme::kOpe, 3, km_, 1);
  std::string s = ev.ToString();
  EXPECT_NE(s.find("OPE"), std::string::npos);
  EXPECT_NE(s.find("k3"), std::string::npos);
}

// ------------------------------------------------------------------- KATs ---
//
// Known-answer tests: ciphertexts frozen from the current implementation.
// Any change to the cipher cores, encodings, or nonce handling that alters
// bytes on the wire (and would therefore break cross-version equality
// comparisons, OPE order, or stored data) fails here loudly.

namespace {

std::string Hex(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  return out;
}

}  // namespace

TEST(CryptoKat, OpeOrderPreservingFixedVectors) {
  // Key 0xfeedbeef; ciphertext bytes are both frozen and strictly
  // increasing with the plaintext — order preservation on exact vectors,
  // not just sampled pairs.
  const uint64_t key = 0xfeedbeefull;
  const std::pair<int64_t, const char*> kat[] = {
      {-1000000, "0000000000007ffffffffff0bdc0338e"},
      {-1, "0000000000007fffffffffffffff0c13"},
      {0, "0000000000008000000000000000fd8d"},
      {1, "00000000000080000000000000019ff3"},
      {42, "000000000000800000000000002a10bb"},
      {1000, "00000000000080000000000003e86785"},
      {123456789, "00000000000080000000075bcd1541ed"},
  };
  std::string prev;
  for (const auto& [v, want] : kat) {
    std::string ct = OpeEncryptInt(key, v);
    EXPECT_EQ(Hex(ct), want) << "OPE(" << v << ")";
    if (!prev.empty()) {
      EXPECT_LT(prev, ct) << "order broken at " << v;
    }
    prev = ct;
    EXPECT_EQ(*OpeDecryptInt(key, ct), v);
  }
}

TEST(CryptoKat, PaillierAdditiveHomomorphismFixedVectors) {
  // Seed 1234; messages 123 and -45 under nonces 17 and 23. The ciphertext
  // bytes, their homomorphic sum, and the decrypted signed total are all
  // frozen.
  PaillierKey key = PaillierKeyGen(1234);
  EXPECT_EQ(key.n, 2012814128907193631ull);
  uint128 c1 = PaillierEncrypt(key, PaillierEncodeSigned(key, 123), 17);
  uint128 c2 = PaillierEncrypt(key, PaillierEncodeSigned(key, -45), 23);
  EXPECT_EQ(Hex(PaillierCipherToBytes(c1)), "01fa1a095fbb1941e368bd9b65b6d501");
  EXPECT_EQ(Hex(PaillierCipherToBytes(c2)), "0d4c504ecf4bfaa7c0425659fc650600");
  uint128 sum = PaillierAdd(key.n, c1, c2);
  EXPECT_EQ(Hex(PaillierCipherToBytes(sum)),
            "98106646b7a1cb817f0c6b2dbe2a2e00");
  EXPECT_EQ(PaillierDecodeSigned(key, *PaillierDecrypt(key, sum)), 78);
  // The accumulation lifecycle lands on the same frozen ciphertext bytes.
  PaillierSumCtx ctx(key.n);
  ctx.Reset();
  ctx.Accumulate(c1);
  ctx.Accumulate(c2);
  EXPECT_EQ(ctx.accumulated(), 2u);
  EXPECT_EQ(Hex(PaillierCipherToBytes(ctx.Finalize())),
            "98106646b7a1cb817f0c6b2dbe2a2e00");
}

TEST(CryptoKat, DeterministicAndOpeCellFixedVectors) {
  // KeyMaterial(seed=2024, key_id=7); DET and OPE cells over int 77.
  KeyMaterial km = MakeKeyMaterial(2024, 7);
  EncValue det =
      *EncryptValue(Value(int64_t{77}), EncScheme::kDeterministic, 7, km, 0);
  EXPECT_EQ(Hex(det.blob), "95c4b291a9eb15a235b37efbc8113f5089");
  EncValue ope = *EncryptValue(Value(int64_t{77}), EncScheme::kOpe, 7, km, 0);
  EXPECT_EQ(Hex(ope.blob), "000000000000800000000000004dde6b");
}

TEST(CryptoKat, CodecSpansEqualSingleCellOnContiguousColumns) {
  // ColumnCodec::EncryptSpan over a contiguous column must produce exactly
  // the ciphertexts of per-cell EncryptValue drawing nonce_base + i — the
  // guarantee that lets the engine encrypt whole columns batch-parallel
  // without changing a single output bit.
  KeyMaterial km = MakeKeyMaterial(99, 3);
  ColumnCodec codec(km);
  const uint64_t nonce_base = 0x1000;
  const std::vector<int64_t> values = {5, -2, 0, 999, 5};
  for (EncScheme s : {EncScheme::kRandom, EncScheme::kDeterministic,
                      EncScheme::kOpe, EncScheme::kPaillier}) {
    std::vector<Cell> cells;
    cells.reserve(values.size());
    for (int64_t v : values) cells.emplace_back(Value(v));
    ColumnData column = ColumnFromCells(std::move(cells));
    Result<EncArena> encs = codec.SizeEncrypt(column, s);
    ASSERT_TRUE(encs.ok());
    ASSERT_TRUE(codec.EncryptSpan(column, 0, column.size(), s, nonce_base,
                                  &*encs)
                    .ok())
        << EncSchemeName(s);
    for (size_t i = 0; i < values.size(); ++i) {
      Result<EncValue> single =
          EncryptValue(Value(values[i]), s, 3, km, nonce_base + i);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(encs->At(i).ToValue(), *single)
          << EncSchemeName(s) << " cell " << i;
    }
    // And DecryptSpan inverts the whole contiguous ciphertext column.
    ColumnData enc_column;
    enc_column.Adopt(std::move(*encs));
    ColumnData roundtrip;
    ASSERT_TRUE(codec.DecryptSpan(enc_column, 0, enc_column.size(),
                                  DataType::kInt64, false, &roundtrip)
                    .ok());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(roundtrip.GetCell(i).plain(), Value(values[i]))
          << EncSchemeName(s) << " cell " << i;
    }
  }
}

// The per-key precompute (CRT + Montgomery + fixed-exponent window
// schedules) and the public Montgomery add-context are pure accelerations:
// every output must equal the schoolbook PowMod/MulMod path bit-for-bit.

/// Independent schoolbook modular exponentiation (double-and-add MulMod),
/// the reference the precompute paths are checked against.
uint128 MulModRef(uint128 a, uint128 b, uint128 m) {
  a %= m;
  uint128 result = 0;
  while (b > 0) {
    if (b & 1) {
      result += a;
      if (result >= m) result -= m;
    }
    a <<= 1;
    if (a >= m) a -= m;
    b >>= 1;
  }
  return result;
}

uint128 PowModRef(uint128 base, uint128 exp, uint128 m) {
  uint128 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulModRef(result, base, m);
    base = MulModRef(base, base, m);
    exp >>= 1;
  }
  return result;
}
TEST(PaillierPrecompTest, EncryptDecryptBitIdenticalToSchoolbook) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 20250729ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierPrecomp pre(key);
    ASSERT_TRUE(pre.valid());
    for (uint64_t i = 0; i < 50; ++i) {
      uint64_t m = (i * 0x9e3779b97f4a7c15ull) % key.n;
      uint64_t rand = i * 1099511628211ull + 3;
      uint128 slow = PaillierEncrypt(key, m, rand);
      uint128 fast = pre.Encrypt(m, rand);
      ASSERT_EQ(PaillierCipherToBytes(fast), PaillierCipherToBytes(slow))
          << "seed " << seed << " i " << i;
      Result<uint64_t> slow_m = PaillierDecrypt(key, slow);
      Result<uint64_t> fast_m = pre.Decrypt(fast);
      ASSERT_TRUE(slow_m.ok());
      ASSERT_TRUE(fast_m.ok());
      ASSERT_EQ(*fast_m, *slow_m);
      ASSERT_EQ(*fast_m, m);
    }
    // The blinding exponentiation itself, over edge bases.
    for (uint64_t base :
         {uint64_t{0}, uint64_t{1}, uint64_t{2}, key.n - 1, key.n,
          key.n + 17}) {
      EXPECT_EQ(PaillierCipherToBytes(pre.PowN(base)),
                PaillierCipherToBytes(PowModRef(base, key.n, key.n2())))
          << "base " << base;
    }
  }
}

TEST(PaillierPrecompTest, MontgomeryAddBitIdenticalToMulModLadder) {
  for (uint64_t seed : {2ull, 11ull, 77ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierSumCtx ctx(key.n);
    uint128 acc_slow = 0, acc_fast = 0;
    bool first = true;
    for (uint64_t i = 0; i < 64; ++i) {
      uint128 c = PaillierEncrypt(key, i * 31 % key.n, i + 1);
      if (first) {
        acc_slow = acc_fast = c;
        first = false;
        continue;
      }
      acc_slow = PaillierAdd(key.n, acc_slow, c);
      acc_fast = ctx.Add(acc_fast, c);
      ASSERT_EQ(PaillierCipherToBytes(acc_fast),
                PaillierCipherToBytes(acc_slow))
          << "seed " << seed << " step " << i;
    }
    Result<uint64_t> sum = PaillierDecrypt(key, acc_fast);
    ASSERT_TRUE(sum.ok());
    uint64_t expect = 0;
    for (uint64_t i = 0; i < 64; ++i) expect = (expect + i * 31) % key.n;
    EXPECT_EQ(*sum, expect);
  }
}

TEST(PaillierPrecompTest, AccumulationLifecycleBitIdenticalToAddChain) {
  // Every prefix length of the reusable lifecycle — the lazy group-by fold —
  // must land on exactly the ciphertext of the eager Add() chain, and the
  // batched entry point must match the streaming one, across Reset() reuse.
  for (uint64_t seed : {2ull, 11ull, 77ull}) {
    PaillierKey key = PaillierKeyGen(seed);
    PaillierSumCtx ctx(key.n);
    std::vector<uint128> cs;
    for (uint64_t i = 0; i < 64; ++i) {
      cs.push_back(PaillierEncrypt(key, i * 31 % key.n, i + 1));
    }
    uint128 chain = 0;
    ctx.Reset();
    for (size_t k = 0; k < cs.size(); ++k) {
      chain = k == 0 ? cs[k] : ctx.Add(chain, cs[k]);
      ctx.Accumulate(cs[k]);
      ASSERT_EQ(ctx.accumulated(), k + 1);
      ASSERT_EQ(PaillierCipherToBytes(ctx.Finalize()),
                PaillierCipherToBytes(chain))
          << "seed " << seed << " prefix " << k + 1;
    }
    // AccumulateMany in one shot, and split at an uneven boundary, on the
    // same context after Reset().
    ctx.Reset();
    ctx.AccumulateMany(cs.data(), cs.size());
    EXPECT_EQ(PaillierCipherToBytes(ctx.Finalize()),
              PaillierCipherToBytes(chain));
    ctx.Reset();
    ctx.AccumulateMany(cs.data(), 7);
    ctx.AccumulateMany(cs.data() + 7, cs.size() - 7);
    EXPECT_EQ(ctx.accumulated(), cs.size());
    EXPECT_EQ(PaillierCipherToBytes(ctx.Finalize()),
              PaillierCipherToBytes(chain));
    // Empty fold: Finalize is the additive identity placeholder (0).
    ctx.Reset();
    EXPECT_EQ(ctx.accumulated(), 0u);
    EXPECT_EQ(ctx.Finalize(), uint128{0});
  }
  // Degenerate (even) modulus: the lifecycle falls back to the schoolbook
  // chain, exactly like Add().
  PaillierSumCtx degenerate(/*n=*/6);
  uint128 a = 5, b = 11, c = 23;
  uint128 chain = PaillierAdd(6, PaillierAdd(6, a, b), c);
  degenerate.Reset();
  degenerate.Accumulate(a);
  degenerate.Accumulate(b);
  degenerate.Accumulate(c);
  EXPECT_EQ(degenerate.Finalize(), chain);
  EXPECT_EQ(degenerate.Add(degenerate.Add(a, b), c), chain);
}

TEST(PaillierPrecompTest, InvalidKeyFallsBackGracefully) {
  PaillierKey bogus;  // no factors
  PaillierPrecomp pre(bogus);
  EXPECT_FALSE(pre.valid());
  // KeyMaterial always carries a valid precompute for generated keys.
  KeyMaterial km = MakeKeyMaterial(5, 9);
  ASSERT_NE(km.hom_precomp, nullptr);
  EXPECT_TRUE(km.hom_precomp->valid());
}

}  // namespace
}  // namespace mpq
