// Encrypted cells and the plaintext-or-encrypted Cell type flowing through
// the execution engine.

#ifndef MPQ_CRYPTO_ENC_VALUE_H_
#define MPQ_CRYPTO_ENC_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "algebra/expr.h"
#include "common/status.h"
#include "common/value.h"
#include "crypto/keyring.h"
#include "crypto/scheme.h"

namespace mpq {

/// An encrypted cell value.
struct EncValue {
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;
  std::string blob;
  /// Auxiliary plaintext counter: number of values homomorphically summed
  /// into a Paillier ciphertext (1 for a freshly encrypted value). Carried in
  /// the clear so avg can divide after decryption; counts are not protected
  /// by the authorization model (they are count(*)-level information).
  int64_t aux = 1;

  size_t ByteSize() const { return blob.size() + 8; }
  std::string ToString() const;

  bool operator==(const EncValue& o) const {
    return scheme == o.scheme && key_id == o.key_id && blob == o.blob &&
           aux == o.aux;
  }
};

/// A ciphertext's scheme and key.
struct EncKey {
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;

  bool operator==(const EncKey& o) const {
    return scheme == o.scheme && key_id == o.key_id;
  }
  bool operator!=(const EncKey& o) const { return !(*this == o); }
};

/// A read-only view of one ciphertext: of an EncValue, or of a row of a
/// flat ciphertext column (ColumnData::EncAt). The blob points into the
/// source, so a view is valid only while its source is unmodified.
struct EncView {
  EncScheme scheme = EncScheme::kRandom;
  uint64_t key_id = 0;
  std::string_view blob;
  int64_t aux = 1;

  EncView() = default;
  EncView(EncKey k, std::string_view b, int64_t a)
      : scheme(k.scheme), key_id(k.key_id), blob(b), aux(a) {}
  EncView(const EncValue& ev)  // NOLINT
      : scheme(ev.scheme), key_id(ev.key_id), blob(ev.blob), aux(ev.aux) {}

  EncKey key() const { return {scheme, key_id}; }
  /// An owning copy.
  EncValue ToValue() const {
    return EncValue{scheme, key_id, std::string(blob), aux};
  }
};

/// A cell: plaintext Value or EncValue.
class Cell {
 public:
  Cell() : v_(Value()) {}
  Cell(Value v) : v_(std::move(v)) {}          // NOLINT
  Cell(EncValue v) : v_(std::move(v)) {}       // NOLINT

  bool is_plain() const { return std::holds_alternative<Value>(v_); }
  bool is_encrypted() const { return !is_plain(); }

  const Value& plain() const { return std::get<Value>(v_); }
  const EncValue& enc() const { return std::get<EncValue>(v_); }
  /// Mutable view, for callers that move a cell's plaintext out.
  Value& plain_mut() { return std::get<Value>(v_); }

  size_t ByteSize() const {
    return is_plain() ? plain().ByteSize() : enc().ByteSize();
  }
  std::string ToString() const {
    return is_plain() ? plain().ToString() : enc().ToString();
  }

 private:
  std::variant<Value, EncValue> v_;
};

/// Encrypts `v` under `scheme` with key `key_id` from `keys`. `fresh_nonce`
/// feeds randomized encryption (and Paillier blinding).
Result<EncValue> EncryptValue(const Value& v, EncScheme scheme, uint64_t key_id,
                              const KeyMaterial& keys, uint64_t fresh_nonce);

/// Bytes of the ciphertext EncryptValue produces for a plaintext whose
/// canonical serialization (Value::Serialize) is `serialized_size` bytes:
/// RND/DET prefix an 8-byte nonce, OPE/HOM ciphertexts are 16 bytes.
inline size_t CiphertextSize(EncScheme scheme, size_t serialized_size) {
  return scheme == EncScheme::kRandom || scheme == EncScheme::kDeterministic
             ? 8 + serialized_size
             : 16;
}

/// The two halves of EncryptValue, writing straight to `out` so a whole
/// column encrypts into one byte arena. RND/DET encrypt the plaintext's
/// canonical serialization `ser` (CiphertextSize bytes); OPE/HOM encrypt a
/// numeric `v` (16 bytes; anything else is kUnsupported).
void EncryptSerializedTo(EncScheme scheme, const KeyMaterial& keys,
                         uint64_t fresh_nonce, std::string_view ser,
                         char* out);
Status EncryptNumericTo(EncScheme scheme, const KeyMaterial& keys,
                        uint64_t fresh_nonce, const Value& v, char* out);

/// Decrypts a ciphertext; `type` guides numeric decoding. For Paillier
/// cells this returns the (decoded) homomorphic sum; callers divide by
/// `aux` when the cell represents an average.
Result<Value> DecryptValue(EncView ev, const KeyMaterial& keys,
                           DataType type);

/// Evaluates `a op b` over two ciphertexts: DET supports =/<>, OPE all
/// comparisons (same scheme and key required). Everything else is
/// kUnsupported.
Result<bool> CompareEnc(CmpOp op, EncView a, EncView b);

/// Evaluates `a op b` over two cells. Plaintext pairs compare as Values;
/// ciphertext pairs as CompareEnc; a mixed pair is kUnsupported.
Result<bool> CompareCells(CmpOp op, const Cell& a, const Cell& b);

/// Grouping/join key bytes for a cell (canonical for plaintext, blob for
/// deterministic and OPE ciphertexts; kUnsupported for RND/HOM, which are not
/// comparable).
Result<std::string> CellGroupKey(const Cell& c);

}  // namespace mpq

#endif  // MPQ_CRYPTO_ENC_VALUE_H_
