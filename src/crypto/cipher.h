// Symmetric cipher used for the kRandom and kDeterministic schemes.
//
// A keystream cipher built on splitmix64: ciphertext = nonce || (plaintext ⊕
// keystream(key, nonce)). Deterministic mode derives the nonce as a PRF of
// the plaintext, so equal plaintexts under the same key yield equal
// ciphertexts (equality-preserving); randomized mode draws a fresh nonce.
//
// This is a functional simulation adequate for reproducing the paper's
// system behaviour (see DESIGN.md §2); it is NOT cryptographically strong.

#ifndef MPQ_CRYPTO_CIPHER_H_
#define MPQ_CRYPTO_CIPHER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mpq {

/// Encrypts `plaintext` with `key`. `nonce` must be unique per call for
/// randomized encryption, or PRF-derived for deterministic encryption.
/// Layout: 8-byte little-endian nonce, then the XOR-masked plaintext.
std::string SymEncrypt(uint64_t key, uint64_t nonce,
                       std::string_view plaintext);

/// SymEncrypt written to `out`, which holds 8 + plaintext.size() bytes.
void SymEncryptTo(uint64_t key, uint64_t nonce, std::string_view plaintext,
                  char* out);

/// The deterministic-mode nonce: a PRF of (key, plaintext).
uint64_t DetNonce(uint64_t key, std::string_view plaintext);

/// Deterministic encryption: nonce = DetNonce(key, plaintext).
std::string DetEncrypt(uint64_t key, std::string_view plaintext);

/// Randomized encryption with caller-provided nonce source.
std::string RndEncrypt(uint64_t key, uint64_t fresh_nonce,
                       std::string_view plaintext);

/// Inverts SymEncrypt/DetEncrypt/RndEncrypt.
Result<std::string> SymDecrypt(uint64_t key, std::string_view ciphertext);

/// SymDecrypt written to `out`, which holds ciphertext.size() - 8 bytes.
/// Precondition: ciphertext.size() >= 8.
void SymDecryptTo(uint64_t key, std::string_view ciphertext, char* out);

}  // namespace mpq

#endif  // MPQ_CRYPTO_CIPHER_H_
