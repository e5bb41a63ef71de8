#include "crypto/cipher.h"

#include <cstring>

#include "common/rng.h"
#include "crypto/scheme.h"

namespace mpq {

const char* EncSchemeName(EncScheme s) {
  switch (s) {
    case EncScheme::kRandom:
      return "RND";
    case EncScheme::kDeterministic:
      return "DET";
    case EncScheme::kOpe:
      return "OPE";
    case EncScheme::kPaillier:
      return "HOM";
  }
  return "?";
}

double EncSchemeCpuMicros(EncScheme s) {
  switch (s) {
    case EncScheme::kRandom:
      return 0.1;
    case EncScheme::kDeterministic:
      return 0.1;
    case EncScheme::kOpe:
      return 3.0;
    case EncScheme::kPaillier:
      return 250.0;
  }
  return 0.1;
}

double EncSchemeCiphertextBytes(EncScheme s, double plain_bytes) {
  switch (s) {
    case EncScheme::kRandom:
    case EncScheme::kDeterministic:
      return plain_bytes + 8.0;  // nonce prefix
    case EncScheme::kOpe:
      return 16.0;
    case EncScheme::kPaillier:
      return 24.0;  // 16-byte ciphertext + 8-byte auxiliary counter
  }
  return plain_bytes;
}

namespace {

/// XORs `len` bytes of `in` with the keystream of (key, nonce) into `out`,
/// eight bytes at a time: block i of the stream is the i-th SplitMix64 step
/// from a state seeded by both, its bytes in memory order.
void XorKeystream(uint64_t key, uint64_t nonce, const char* in, size_t len,
                  char* out) {
  uint64_t state = SplitMix64(key ^ SplitMix64(nonce));
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    state = SplitMix64(state);
    uint64_t w;
    std::memcpy(&w, in + i, 8);
    w ^= state;
    std::memcpy(out + i, &w, 8);
  }
  if (i < len) {
    state = SplitMix64(state);
    uint64_t w = 0;
    std::memcpy(&w, in + i, len - i);
    w ^= state;
    std::memcpy(out + i, &w, len - i);
  }
}

}  // namespace

void SymEncryptTo(uint64_t key, uint64_t nonce, std::string_view plaintext,
                  char* out) {
  std::memcpy(out, &nonce, 8);
  XorKeystream(key, nonce, plaintext.data(), plaintext.size(), out + 8);
}

std::string SymEncrypt(uint64_t key, uint64_t nonce,
                       std::string_view plaintext) {
  std::string out(8 + plaintext.size(), '\0');
  SymEncryptTo(key, nonce, plaintext, out.data());
  return out;
}

uint64_t DetNonce(uint64_t key, std::string_view plaintext) {
  uint64_t h = SplitMix64(key ^ 0xdeadbeefcafef00dull);
  for (unsigned char c : plaintext) h = SplitMix64(h ^ c);
  return h;
}

std::string DetEncrypt(uint64_t key, std::string_view plaintext) {
  return SymEncrypt(key, DetNonce(key, plaintext), plaintext);
}

std::string RndEncrypt(uint64_t key, uint64_t fresh_nonce,
                       std::string_view plaintext) {
  return SymEncrypt(key, fresh_nonce, plaintext);
}

void SymDecryptTo(uint64_t key, std::string_view ciphertext, char* out) {
  uint64_t nonce;
  std::memcpy(&nonce, ciphertext.data(), 8);
  XorKeystream(key, nonce, ciphertext.data() + 8, ciphertext.size() - 8, out);
}

Result<std::string> SymDecrypt(uint64_t key, std::string_view ciphertext) {
  if (ciphertext.size() < 8) {
    return Status::InvalidArgument("ciphertext too short");
  }
  std::string out(ciphertext.size() - 8, '\0');
  SymDecryptTo(key, ciphertext, out.data());
  return out;
}

}  // namespace mpq
