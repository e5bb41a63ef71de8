#include "storage/segment.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/flat_hash.h"
#include "exec/column.h"
#include "exec/morsel.h"

namespace mpq {

namespace {

constexpr char kMagic[4] = {'M', 'P', 'Q', 'S'};
/// Version 4 writes ciphertext pages with the column's (scheme, key) once
/// per page (EncPage). Version 3 wrote a record per ciphertext, and
/// versions 1 and 2 differ from it only in their checksum; their frames are
/// refused.
constexpr uint8_t kVersion = 4;
/// Header: magic + version + u64 rows + u32 cols.
constexpr size_t kHeaderSize = 4 + 1 + 8 + 4;
/// Trailer: u64 footer offset + u64 checksum.
constexpr size_t kTrailerSize = 16;
/// Row-count sanity cap: a claimed count past this is corrupt, rejected
/// before any row-count-sized allocation (compressed pages legitimately
/// cost far less than a byte per row, so the wire format's
/// rows-vs-buffer-size bound does not apply here).
constexpr uint64_t kMaxSegmentRows = 1ull << 31;

// Int64 page kinds.
constexpr uint8_t kPageRaw = 0;
constexpr uint8_t kPageRle = 1;
constexpr uint8_t kPageFor = 2;  // frame-of-reference bit-packing

// String page encodings.
constexpr uint8_t kStringPlain = 0;
constexpr uint8_t kStringDict = 1;

/// Rows per encode morsel of a ciphertext page: a large kEnc page is written
/// as row blocks (each block's start is known from the column's arena
/// offsets), the other pages as one morsel each.
constexpr size_t kEncBlockRows = 4096;

/// A segment of fewer rows is coded inline even with a scheduler: waking
/// helpers costs more than their share of so little work (most spill
/// partitions are this small). The morsel partition, and so every byte, is
/// the same either way.
MorselScheduler* SchedulerFor(uint64_t rows, MorselScheduler* sched) {
  return rows >= kEncBlockRows ? sched : nullptr;
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

char* WriteRaw(char* p, const void* src, size_t n) {
  if (n != 0) std::memcpy(p, src, n);  // src may be null at 0
  return p + n;
}

template <typename T>
char* WriteVal(char* p, T v) {
  return WriteRaw(p, &v, sizeof(v));
}

/// u32 length + bytes: 4 + s.size() bytes.
char* WriteBytes(char* p, std::string_view s) {
  p = WriteVal(p, static_cast<uint32_t>(s.size()));
  return WriteRaw(p, s.data(), s.size());
}

/// Ciphertext record of a kCell page: u8 scheme, u64 key id, u64 aux, then
/// the blob as WriteBytes lays it out — kEncFixed + blob.size() bytes.
constexpr size_t kEncFixed = 1 + 8 + 8 + 4;

char* WriteEnc(char* p, EncView ev) {
  p = WriteVal(p, static_cast<uint8_t>(ev.scheme));
  p = WriteVal(p, ev.key_id);
  p = WriteVal(p, static_cast<uint64_t>(ev.aux));
  return WriteBytes(p, ev.blob);
}

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;

/// One checksum step: a bijection in `lane` for a fixed word and in `w` for
/// a fixed lane (kP1 and kP2 are odd, and add and rotate are bijections).
uint64_t ChecksumStep(uint64_t lane, uint64_t w) {
  return Rotl(lane + w * kP2, 31) * kP1;
}

/// One chunk's sum over 64-bit words in four interleaved lanes (word i
/// feeds lane i % 4, so the multiplies of neighbouring words overlap); a
/// trailing partial word is zero-padded. The final fold is a bijection in
/// each lane for fixed others.
uint64_t ChunkSum(const char* data, size_t n) {
  uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const size_t words = n / 8;
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    uint64_t w[4];
    std::memcpy(w, data + 8 * i, sizeof(w));
    lane[0] = ChecksumStep(lane[0], w[0]);
    lane[1] = ChecksumStep(lane[1], w[1]);
    lane[2] = ChecksumStep(lane[2], w[2]);
    lane[3] = ChecksumStep(lane[3], w[3]);
  }
  for (; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, data + 8 * i, sizeof(w));
    lane[i % 4] = ChecksumStep(lane[i % 4], w);
  }
  if (n % 8 != 0) {
    uint64_t w = 0;
    std::memcpy(&w, data + 8 * words, n % 8);
    lane[words % 4] = ChecksumStep(lane[words % 4], w);
  }
  return Rotl(lane[0], 1) + Rotl(lane[1], 7) + Rotl(lane[2], 12) +
         Rotl(lane[3], 18);
}

/// Bounds-checked reader over a byte range of the frame.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Take(void* dst, size_t n) {
    if (n > size - pos) return false;  // pos <= size always holds
    if (n != 0) std::memcpy(dst, data + pos, n);  // dst may be null at 0
    pos += n;
    return true;
  }
  bool U8(uint8_t* v) { return Take(v, 1); }
  bool U32(uint32_t* v) { return Take(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Take(v, sizeof(*v)); }
  bool Bytes(std::string* s) {
    uint32_t n;
    if (!U32(&n) || n > size - pos) return false;
    s->assign(data + pos, n);
    pos += n;
    return true;
  }
  /// A ciphertext record (WriteEnc); the view's blob points into the frame.
  bool Enc(EncView* ev) {
    uint8_t scheme;
    uint64_t key_id, aux;
    uint32_t len;
    if (!U8(&scheme) || scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
        !U64(&key_id) || !U64(&aux) || !U32(&len) || len > size - pos) {
      return false;
    }
    *ev = EncView(EncKey{static_cast<EncScheme>(scheme), key_id},
                  std::string_view(data + pos, len), static_cast<int64_t>(aux));
    pos += len;
    return true;
  }
};

Status Corrupt() {
  return Status::InvalidArgument("corrupt segment");
}

/// LSB-first bit packing: value i occupies stream bits
/// [i*width, (i+1)*width); stream bit b lives in byte b/8, bit b%8. Values
/// are shifted into a 64-bit accumulator that is flushed a word at a time
/// (the frame is little-endian, like every other field).
template <typename T>
char* PackBits(const T* vals, size_t n, uint8_t width, char* p) {
  if (width == 0) return p;
  const uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  uint64_t acc = 0;
  unsigned filled = 0;  // bits of acc in use, always < 64
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = static_cast<uint64_t>(vals[i]) & mask;
    acc |= v << filled;
    filled += width;
    if (filled >= 64) {
      p = WriteRaw(p, &acc, sizeof(acc));
      filled -= 64;
      // The bits of v that did not fit (none when v ended on the word).
      acc = filled == 0 ? 0 : v >> (width - filled);
    }
  }
  return WriteRaw(p, &acc, (filled + 7) / 8);
}

/// Inverse of PackBits over `n` values; the caller has bounds-checked that
/// the (n * width + 7) / 8 packed bytes are available, and no byte past
/// them is read.
void UnpackBits(const uint8_t* bytes, size_t n, uint8_t width,
                uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, 0);
    return;
  }
  const uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  const size_t nbytes = (n * width + 7) / 8;
  size_t pos = 0;
  uint64_t acc = 0;
  unsigned avail = 0;  // unread bits at the bottom of acc, always < 64
  for (size_t i = 0; i < n; ++i) {
    if (avail >= width) {
      out[i] = acc & mask;
      acc >>= width;  // width < 64 here: avail < 64
      avail -= width;
      continue;
    }
    uint64_t w = 0;
    size_t len = std::min<size_t>(8, nbytes - pos);
    std::memcpy(&w, bytes + pos, len);
    pos += len;
    out[i] = (acc | (w << avail)) & mask;
    unsigned used = width - avail;  // bits of w taken by this value
    acc = used == 64 ? 0 : w >> used;
    avail = 64 - used;
  }
}

uint8_t BitsFor(uint64_t v) {
  uint8_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// An int64 page's encoding: the cheapest of raw, run-length, and
/// frame-of-reference bit-packing — a deterministic function of the values
/// alone (ties prefer the lower page kind).
struct Int64Page {
  uint8_t kind = kPageRaw;
  size_t runs = 0;
  int64_t mn = 0;
  uint8_t bw = 0;
  uint64_t len = 0;  ///< page bytes
};

Int64Page PlanInt64Page(const std::vector<int64_t>& v) {
  Int64Page pg;
  size_t n = v.size();
  uint64_t raw_cost = 1 + 8 * static_cast<uint64_t>(n);

  int64_t mx = n > 0 ? v[0] : 0;
  pg.mn = mx;
  pg.runs = n > 0 ? 1 : 0;
  for (size_t i = 1; i < n; ++i) {
    pg.runs += v[i] != v[i - 1];
    pg.mn = std::min(pg.mn, v[i]);
    mx = std::max(mx, v[i]);
  }
  uint64_t rle_cost = 1 + 4 + 12 * static_cast<uint64_t>(pg.runs);

  uint64_t max_delta =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(pg.mn);
  pg.bw = BitsFor(max_delta);
  uint64_t for_cost =
      1 + 8 + 1 + (static_cast<uint64_t>(n) * pg.bw + 7) / 8;

  if (n > 0 && rle_cost < raw_cost && rle_cost <= for_cost) {
    pg.kind = kPageRle;
    pg.len = rle_cost;
  } else if (n > 0 && for_cost < raw_cost) {
    pg.kind = kPageFor;
    pg.len = for_cost;
  } else {
    pg.kind = kPageRaw;
    pg.len = raw_cost;
  }
  return pg;
}

char* EncodeInt64Page(const std::vector<int64_t>& v, const Int64Page& pg,
                      char* p) {
  size_t n = v.size();
  p = WriteVal(p, pg.kind);
  if (pg.kind == kPageRle) {
    p = WriteVal(p, static_cast<uint32_t>(pg.runs));
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && v[j] == v[i]) ++j;
      p = WriteVal(p, static_cast<uint64_t>(v[i]));
      p = WriteVal(p, static_cast<uint32_t>(j - i));
      i = j;
    }
    return p;
  }
  if (pg.kind == kPageFor) {
    p = WriteVal(p, static_cast<uint64_t>(pg.mn));
    p = WriteVal(p, pg.bw);
    if (pg.bw == 0) return p;  // every value is the base
    std::vector<uint64_t> deltas(n);
    for (size_t i = 0; i < n; ++i) {
      deltas[i] = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(pg.mn);
    }
    return PackBits(deltas.data(), n, pg.bw, p);
  }
  return WriteRaw(p, v.data(), 8 * n);
}

/// Validates the page length before sizing `out`: a raw or bit-packed page
/// must hold the bytes its row count implies, so a frame claiming far more
/// rows than it carries is refused without the row-count-sized allocation.
Status DecodeInt64Page(Reader* r, uint64_t num_rows,
                       std::vector<int64_t>* out) {
  uint8_t kind;
  if (!r->U8(&kind)) return Corrupt();
  switch (kind) {
    case kPageRaw:
      if (num_rows > (r->size - r->pos) / 8) return Corrupt();
      out->resize(num_rows);
      r->Take(out->data(), 8 * num_rows);
      return Status::OK();
    case kPageRle: {
      uint32_t runs;
      if (!r->U32(&runs)) return Corrupt();
      out->resize(num_rows);
      uint64_t i = 0;
      for (uint32_t k = 0; k < runs; ++k) {
        uint64_t value;
        uint32_t count;
        if (!r->U64(&value) || !r->U32(&count) || count == 0 ||
            count > num_rows - i) {
          return Corrupt();
        }
        std::fill(out->begin() + static_cast<long>(i),
                  out->begin() + static_cast<long>(i + count),
                  static_cast<int64_t>(value));
        i += count;
      }
      if (i != num_rows) return Corrupt();
      return Status::OK();
    }
    case kPageFor: {
      uint64_t base;
      uint8_t bw;
      if (!r->U64(&base) || !r->U8(&bw) || bw > 64) return Corrupt();
      size_t nbytes = (num_rows * bw + 7) / 8;
      if (nbytes > r->size - r->pos) return Corrupt();
      out->resize(num_rows);
      // Deltas unpack in place (int64_t and uint64_t may alias).
      auto* deltas = reinterpret_cast<uint64_t*>(out->data());
      UnpackBits(reinterpret_cast<const uint8_t*>(r->data + r->pos),
                 num_rows, bw, deltas);
      r->pos += nbytes;
      for (uint64_t i = 0; i < num_rows; ++i) {
        deltas[i] += base;
      }
      return Status::OK();
    }
    default:
      return Corrupt();
  }
}

/// String page: dictionary + bit-packed codes when strictly smaller than
/// the plain length-prefixed payload (deterministic, like the wire format's
/// dictionary decision).
struct StringPage {
  bool dict = false;
  std::vector<uint32_t> values;  ///< dictionary code -> row of its value
  std::vector<uint32_t> codes;   ///< per-row dictionary code
  uint8_t code_bits = 0;
  uint64_t len = 0;  ///< page bytes
};

Status PlanStringPage(const ColumnData& d, StringPage* pg) {
  size_t n = d.size();
  ColumnDict dict(&d);
  pg->codes.resize(n);
  MPQ_RETURN_NOT_OK(dict.EncodeRange(0, n, pg->codes.data()));

  uint64_t plain_cost = 0;
  for (const std::string& s : d.str()) plain_cost += 4 + s.size();
  pg->code_bits =
      dict.size() == 0 ? 0 : BitsFor(static_cast<uint64_t>(dict.size() - 1));
  uint64_t dict_cost =
      4 + 1 + (static_cast<uint64_t>(n) * pg->code_bits + 7) / 8;
  for (uint32_t k = 0; k < dict.size(); ++k) {
    dict_cost += 4 + d.str()[dict.RepRow(k)].size();
  }

  pg->dict = dict_cost < plain_cost;
  if (pg->dict) {
    pg->values.resize(dict.size());
    for (uint32_t k = 0; k < dict.size(); ++k) pg->values[k] = dict.RepRow(k);
  } else {
    pg->codes.clear();
  }
  pg->len = 1 + std::min(dict_cost, plain_cost);
  return Status::OK();
}

char* EncodeStringPage(const ColumnData& d, const StringPage& pg, char* p) {
  if (pg.dict) {
    p = WriteVal(p, kStringDict);
    p = WriteVal(p, static_cast<uint32_t>(pg.values.size()));
    for (uint32_t row : pg.values) p = WriteBytes(p, d.str()[row]);
    p = WriteVal(p, pg.code_bits);
    return PackBits(pg.codes.data(), pg.codes.size(), pg.code_bits, p);
  }
  p = WriteVal(p, kStringPlain);
  for (const std::string& s : d.str()) p = WriteBytes(p, s);
  return p;
}

// Ciphertext page flags: which per-row vectors follow the page key.
constexpr uint8_t kEncMixedKeys = 1;  // per-row schemes and key ids
constexpr uint8_t kEncAux = 2;        // per-row Paillier counts
/// (scheme u8, key id u64, flags u8).
constexpr size_t kEncPageHeader = 1 + 8 + 1;

/// A ciphertext page, laid out as the column's arena holds it: the column
/// (scheme, key id) once, a flags byte, then int64 pages of per-row schemes
/// and key ids (only when rows mix keys) and of per-row counts (only when
/// some count is not 1), an int64 page of blob lengths (10 bytes when every
/// blob has the same length), and last every blob back to back —
/// the arena's byte buffer verbatim. A NULL row has length 0, the column
/// key and count 1; a non-NULL ciphertext is never empty.
struct EncPage {
  uint8_t flags = 0;
  std::vector<std::vector<int64_t>> vecs;  ///< in page order, lengths last
  std::vector<Int64Page> pages;            ///< one per vecs entry
  uint64_t head_len = 0;                   ///< page bytes before the blobs
};

Status PlanEncPage(const ColumnData& d, EncPage* pg) {
  const EncArena& a = d.enc();
  const size_t n = d.size();
  pg->flags = static_cast<uint8_t>((a.mixed_keys() ? kEncMixedKeys : 0) |
                                   (a.has_aux() ? kEncAux : 0));
  auto per_row = [&](auto value_of) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = value_of(i);
    pg->vecs.push_back(std::move(v));
  };
  if (pg->flags & kEncMixedKeys) {
    per_row([&](size_t i) { return static_cast<int64_t>(a.KeyAt(i).scheme); });
    per_row([&](size_t i) { return static_cast<int64_t>(a.KeyAt(i).key_id); });
  }
  if (pg->flags & kEncAux) per_row([&](size_t i) { return a.AuxAt(i); });
  per_row([&](size_t i) {
    return static_cast<int64_t>(a.BlobOffset(i + 1) - a.BlobOffset(i));
  });
  const std::vector<int64_t>& lens = pg->vecs.back();
  for (size_t i = 0; i < n; ++i) {
    if ((lens[i] == 0) != d.IsNull(i)) {
      return Status::InvalidArgument(
          "ciphertext column holds an empty ciphertext or a non-empty NULL");
    }
  }
  pg->head_len = kEncPageHeader;
  for (const std::vector<int64_t>& v : pg->vecs) {
    pg->pages.push_back(PlanInt64Page(v));
    pg->head_len += pg->pages.back().len;
  }
  return Status::OK();
}

/// Writes the page's bytes before the blobs.
char* EncodeEncHead(const ColumnData& d, const EncPage& pg, char* p) {
  const EncKey key = d.enc().key().value_or(EncKey());
  p = WriteVal(p, static_cast<uint8_t>(key.scheme));
  p = WriteVal(p, key.key_id);
  p = WriteVal(p, pg.flags);
  for (size_t k = 0; k < pg.vecs.size(); ++k) {
    p = EncodeInt64Page(pg.vecs[k], pg.pages[k], p);
  }
  return p;
}

/// Heterogeneous fallback page: per row a u8 tag, then the ciphertext
/// record or the serialized plaintext value.
char* EncodeCellPage(const ColumnData& d, char* p) {
  for (const Cell& cell : d.cells()) {
    p = WriteVal(p, static_cast<uint8_t>(cell.is_encrypted() ? 1 : 0));
    p = cell.is_encrypted() ? WriteEnc(p, cell.enc())
                            : WriteBytes(p, cell.plain().Serialize());
  }
  return p;
}

/// Null mask bit-packing (1 = NULL), (rows + 7) / 8 bytes.
char* EncodeNullMask(const ColumnData& d, char* p) {
  size_t n = d.size();
  auto* bytes = reinterpret_cast<uint8_t*>(p);
  std::memset(bytes, 0, (n + 7) / 8);
  for (size_t i = 0; i < n; ++i) {
    if (d.IsNull(i)) bytes[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return p + (n + 7) / 8;
}

bool CellIsNull(const Cell& c) {
  return c.is_plain() && c.plain().is_null();
}

/// Footer statistics for one column: null count always; min/max only over
/// plaintext typed reps with no NaN (zone maps must be a total-order bound
/// under Value::Compare, and NaN breaks that order).
SegmentZone ComputeZone(const ExecColumn& col, const ColumnData& d) {
  SegmentZone z;
  z.num_rows = d.size();
  if (d.rep() == ColumnRep::kCell) {
    for (const Cell& c : d.cells()) {
      if (CellIsNull(c)) ++z.null_count;
    }
    return z;
  }
  for (size_t i = 0; i < d.size(); ++i) {
    if (d.IsNull(i)) ++z.null_count;
  }
  if (col.encrypted || z.null_count == d.size()) return z;
  switch (d.rep()) {
    case ColumnRep::kInt64: {
      int64_t mn = 0, mx = 0;
      bool first = true;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        int64_t v = d.i64()[i];
        if (first || v < mn) mn = v;
        if (first || v > mx) mx = v;
        first = false;
      }
      z.min = Value(mn);
      z.max = Value(mx);
      z.has_range = true;
      return z;
    }
    case ColumnRep::kDouble: {
      double mn = 0, mx = 0;
      bool first = true;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        double v = d.f64()[i];
        if (v != v) return z;  // NaN: no usable range
        if (first || v < mn) mn = v;
        if (first || v > mx) mx = v;
        first = false;
      }
      z.min = Value(mn);
      z.max = Value(mx);
      z.has_range = true;
      return z;
    }
    case ColumnRep::kString: {
      const std::string* mn = nullptr;
      const std::string* mx = nullptr;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        const std::string& v = d.str()[i];
        if (mn == nullptr || v < *mn) mn = &v;
        if (mx == nullptr || v > *mx) mx = &v;
      }
      z.min = Value(*mn);
      z.max = Value(*mx);
      z.has_range = true;
      return z;
    }
    default:
      return z;
  }
}

/// Reads a (rows + 7) / 8-byte LSB-first null mask into one byte per row
/// (1 = NULL).
bool DecodeNullMask(Reader* r, uint64_t num_rows,
                    std::vector<uint8_t>* nulls) {
  size_t nbytes = (num_rows + 7) / 8;
  if (nbytes > r->size - r->pos) return false;
  const auto* mb = reinterpret_cast<const uint8_t*>(r->data + r->pos);
  nulls->resize(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    (*nulls)[i] = (mb[i / 8] >> (i % 8)) & 1u;
  }
  r->pos += nbytes;
  return true;
}

/// Resets NULL rows to the default value AppendNull writes (the page holds
/// whatever the encoder's column had in those slots).
template <typename T>
void ClearMasked(const std::vector<uint8_t>& nulls, std::vector<T>* vals) {
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (nulls[i] != 0) (*vals)[i] = T();
  }
}

/// Decodes a ciphertext page (EncPage) into one arena: offsets from the
/// blob lengths, then the blobs in one copy. Per-row keys and counts are
/// kept when the page carries them, which the encoder does only for a
/// column that has them, and a NULL row is the null slot AppendNull
/// leaves. Every non-NULL row costs at least one blob byte and the null
/// mask bounds the NULL rows, so a row count the page cannot hold is
/// refused before anything is sized by it.
Status DecodeEncPage(Reader* r, uint64_t num_rows, std::vector<uint8_t> nulls,
                     ColumnData* out) {
  uint8_t scheme, flags;
  uint64_t key_id;
  if (!r->U8(&scheme) || scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
      !r->U64(&key_id) || !r->U8(&flags) ||
      (flags & ~(kEncMixedKeys | kEncAux)) != 0) {
    return Corrupt();
  }
  const uint64_t non_null =
      num_rows - static_cast<uint64_t>(
                     std::count(nulls.begin(), nulls.end(), uint8_t{1}));
  if (non_null > r->size - r->pos) return Corrupt();
  std::vector<int64_t> schemes, key_ids, counts, lens;
  if (flags & kEncMixedKeys) {
    MPQ_RETURN_NOT_OK(DecodeInt64Page(r, num_rows, &schemes));
    MPQ_RETURN_NOT_OK(DecodeInt64Page(r, num_rows, &key_ids));
  }
  if (flags & kEncAux) MPQ_RETURN_NOT_OK(DecodeInt64Page(r, num_rows, &counts));
  MPQ_RETURN_NOT_OK(DecodeInt64Page(r, num_rows, &lens));

  const uint64_t avail =
      std::min<uint64_t>(r->size - r->pos, EncArena::kMaxBytes);
  const EncKey page_key{static_cast<EncScheme>(scheme), key_id};
  std::vector<uint32_t> off(num_rows + 1);
  std::vector<EncKey> keys(schemes.empty() ? 0 : num_rows, page_key);
  std::vector<int64_t> aux(counts.empty() ? 0 : num_rows, 1);
  for (uint64_t i = 0; i < num_rows; ++i) {
    const bool is_null = !nulls.empty() && nulls[i] != 0;
    const int64_t len = lens[i];
    if (len < 0 || (len == 0) != is_null ||
        static_cast<uint64_t>(len) > avail - off[i]) {
      return Corrupt();
    }
    off[i + 1] = off[i] + static_cast<uint32_t>(len);
    if (is_null) continue;
    if (!keys.empty()) {
      if (schemes[i] < 0 ||
          schemes[i] > static_cast<int64_t>(EncScheme::kPaillier)) {
        return Corrupt();
      }
      keys[i] = EncKey{static_cast<EncScheme>(schemes[i]),
                       static_cast<uint64_t>(key_ids[i])};
    }
    if (!aux.empty()) aux[i] = counts[i];
  }
  const uint32_t total = off.back();
  EncArena arena = EncArena::Sized(
      non_null > 0 ? std::optional<EncKey>(page_key) : std::nullopt,
      std::move(off), std::move(keys), std::move(aux));
  WriteRaw(arena.Slot(0), r->data + r->pos, total);
  r->pos += total;
  out->Adopt(std::move(arena), std::move(nulls));
  return Status::OK();
}

/// Decodes one column page into `out` a column at a time: each typed rep
/// is built as one vector and adopted together with its null mask.
Status DecodeColumnPage(Reader* r, ColumnRep rep, uint64_t num_rows,
                        std::vector<uint8_t> nulls, ColumnData* out) {
  switch (rep) {
    case ColumnRep::kInt64: {
      std::vector<int64_t> vals;
      MPQ_RETURN_NOT_OK(DecodeInt64Page(r, num_rows, &vals));
      ClearMasked(nulls, &vals);
      out->Adopt(std::move(vals), std::move(nulls));
      return Status::OK();
    }
    case ColumnRep::kDouble: {
      if (num_rows > (r->size - r->pos) / 8) return Corrupt();
      std::vector<double> vals(num_rows);
      r->Take(vals.data(), 8 * num_rows);
      ClearMasked(nulls, &vals);
      out->Adopt(std::move(vals), std::move(nulls));
      return Status::OK();
    }
    case ColumnRep::kString: {
      uint8_t encoding;
      if (!r->U8(&encoding)) return Corrupt();
      std::vector<std::string> vals;
      if (encoding == kStringDict) {
        uint32_t num_values;
        // Each value costs at least its u32 length.
        if (!r->U32(&num_values) || num_values > (r->size - r->pos) / 4) {
          return Corrupt();
        }
        std::vector<std::string> values(num_values);
        for (uint32_t k = 0; k < num_values; ++k) {
          if (!r->Bytes(&values[k])) return Corrupt();
        }
        uint8_t code_bits;
        if (!r->U8(&code_bits) || code_bits > 32) return Corrupt();
        size_t nbytes = (num_rows * code_bits + 7) / 8;
        if (nbytes > r->size - r->pos) return Corrupt();
        std::vector<uint64_t> codes(num_rows);
        UnpackBits(reinterpret_cast<const uint8_t*>(r->data + r->pos),
                   num_rows, code_bits, codes.data());
        r->pos += nbytes;
        vals.resize(num_rows);
        for (uint64_t i = 0; i < num_rows; ++i) {
          if (!nulls.empty() && nulls[i] != 0) continue;  // code is padding
          if (codes[i] >= num_values) return Corrupt();
          vals[i] = values[codes[i]];
        }
      } else if (encoding == kStringPlain) {
        if (num_rows > (r->size - r->pos) / 4) return Corrupt();
        vals.resize(num_rows);
        for (uint64_t i = 0; i < num_rows; ++i) {
          if (!r->Bytes(&vals[i])) return Corrupt();
        }
        ClearMasked(nulls, &vals);
      } else {
        return Corrupt();
      }
      out->Adopt(std::move(vals), std::move(nulls));
      return Status::OK();
    }
    case ColumnRep::kEnc:
      return DecodeEncPage(r, num_rows, std::move(nulls), out);
    case ColumnRep::kCell: {
      // The fallback rep holds NULLs as null cells; a mask on it (which the
      // encoder never writes) is ignored.
      std::vector<Cell> cells;
      cells.reserve(std::min<uint64_t>(num_rows, r->size - r->pos));
      for (uint64_t i = 0; i < num_rows; ++i) {
        uint8_t is_enc;
        if (!r->U8(&is_enc)) return Corrupt();
        if (is_enc) {
          EncView ev;
          if (!r->Enc(&ev)) return Corrupt();
          cells.emplace_back(ev.ToValue());
        } else {
          std::string s;
          if (!r->Bytes(&s)) return Corrupt();
          MPQ_ASSIGN_OR_RETURN(Value v, Value::Deserialize(s));
          cells.emplace_back(std::move(v));
        }
      }
      out->Adopt(std::move(cells));
      return Status::OK();
    }
  }
  return Corrupt();
}

/// One column's encoding, planned (and so sized) before any byte is
/// written.
struct PagePlan {
  SegmentZone zone;
  uint64_t offset = 0;
  uint64_t mask_len = 0;  ///< null mask bytes
  uint64_t len = 0;       ///< null mask + page bytes
  Int64Page i64;
  StringPage str;
  EncPage enc;
};

Status PlanPage(const ExecColumn& col, const ColumnData& d, PagePlan* pg) {
  const size_t n = d.size();
  pg->zone = ComputeZone(col, d);
  pg->mask_len = d.has_nulls() ? (n + 7) / 8 : 0;
  pg->len = pg->mask_len;
  switch (d.rep()) {
    case ColumnRep::kInt64:
      pg->i64 = PlanInt64Page(d.i64());
      pg->len += pg->i64.len;
      break;
    case ColumnRep::kDouble:
      pg->len += 8 * n;
      break;
    case ColumnRep::kString:
      MPQ_RETURN_NOT_OK(PlanStringPage(d, &pg->str));
      pg->len += pg->str.len;
      break;
    case ColumnRep::kEnc:
      MPQ_RETURN_NOT_OK(PlanEncPage(d, &pg->enc));
      pg->len += pg->enc.head_len + d.enc().bytes();
      break;
    case ColumnRep::kCell:
      for (const Cell& cell : d.cells()) {
        pg->len += 1 + (cell.is_encrypted()
                            ? kEncFixed + cell.enc().blob.size()
                            : 4 + cell.plain().Serialize().size());
      }
      break;
  }
  return Status::OK();
}

/// One encode morsel: rows [begin, end) of column `col`'s page. Only kEnc
/// pages are split, into blob ranges; the part holding row 0 also writes
/// the null mask and the page's bytes before the blobs.
struct PagePart {
  size_t col;
  size_t begin;
  size_t end;
};

/// Writes `part` into its byte range of `frame`, disjoint from every other
/// part's, so parts run concurrently.
void WritePagePart(const ColumnData& d, const PagePlan& pg,
                   const PagePart& part, char* frame) {
  char* p = frame + pg.offset;
  if (part.begin == 0 && pg.mask_len > 0) EncodeNullMask(d, p);
  p += pg.mask_len;
  switch (d.rep()) {
    case ColumnRep::kInt64:
      p = EncodeInt64Page(d.i64(), pg.i64, p);
      break;
    case ColumnRep::kDouble:
      p = WriteRaw(p, d.f64().data(), 8 * d.size());
      break;
    case ColumnRep::kString:
      p = EncodeStringPage(d, pg.str, p);
      break;
    case ColumnRep::kEnc: {
      if (part.begin == 0) {
        char* head_end = EncodeEncHead(d, pg.enc, p);
        assert(head_end == p + pg.enc.head_len);
        (void)head_end;
      }
      const EncArena& a = d.enc();
      const size_t from = a.BlobOffset(part.begin);
      p = WriteRaw(p + pg.enc.head_len + from, a.data() + from,
                   a.BlobOffset(part.end) - from);
      assert(part.end < d.size() || p == frame + pg.offset + pg.len);
      return;
    }
    case ColumnRep::kCell:
      p = EncodeCellPage(d, p);
      break;
  }
  assert(p == frame + pg.offset + pg.len);
}

}  // namespace

uint64_t SegmentChecksum(const char* data, size_t n, MorselScheduler* sched) {
  // Any change confined to one 64-bit word is detected. Chunks start at
  // multiples of kSegmentChecksumChunk, itself a multiple of 8, so such a
  // word (the zero-padded partial tail word included) lies in exactly one
  // chunk. In that chunk it feeds one lane step, a bijection in the word;
  // the lane's later steps are bijections in the lane, and the lane fold a
  // bijection in each lane — so the chunk's sum changes. The chunk fold
  // `ChecksumStep(h, sum)` is a bijection in the sum for a fixed h and in h
  // for a fixed sum, and HashMix64 is a bijection: the checksum changes.
  const size_t chunks =
      (n + kSegmentChecksumChunk - 1) / kSegmentChecksumChunk;
  std::vector<uint64_t> sums(chunks);
  (void)RunMorsels(sched, chunks, 1, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      const size_t at = k * kSegmentChecksumChunk;
      sums[k] = ChunkSum(data + at, std::min(kSegmentChecksumChunk, n - at));
    }
    return Status::OK();
  });
  uint64_t h = kP1 + kP2;
  for (uint64_t sum : sums) h = ChecksumStep(h, sum);
  return HashMix64(h ^ n);
}

Result<std::string> EncodeSegment(const Table& t, MorselScheduler* sched) {
  // Every page is planned, and so sized, before any byte is written (one
  // morsel per column): the frame is allocated once, page offsets are known
  // up front, and the pages are then written straight into their disjoint
  // byte ranges of it, again as morsels.
  sched = SchedulerFor(t.num_rows(), sched);
  const size_t num_cols = t.num_columns();
  std::vector<PagePlan> pages(num_cols);
  MPQ_RETURN_NOT_OK(
      RunMorsels(sched, num_cols, 1, [&](size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          MPQ_RETURN_NOT_OK(PlanPage(t.columns()[c], t.col(c), &pages[c]));
        }
        return Status::OK();
      }));
  uint64_t offset = kHeaderSize;
  std::vector<PagePart> parts;
  for (size_t c = 0; c < num_cols; ++c) {
    pages[c].offset = offset;
    offset += pages[c].len;
    const size_t n = t.col(c).size();
    const bool split = t.col(c).rep() == ColumnRep::kEnc;
    const size_t block = split ? kEncBlockRows : std::max<size_t>(n, 1);
    size_t begin = 0;
    do {
      parts.push_back({c, begin, std::min(begin + block, n)});
      begin += block;
    } while (begin < n);
  }

  const uint64_t footer_offset = offset;
  std::string footer;
  for (size_t c = 0; c < num_cols; ++c) {
    const ExecColumn& col = t.columns()[c];
    const ColumnData& d = t.col(c);
    const PagePlan& pg = pages[c];
    PutU32(&footer, col.attr);
    PutBytes(&footer, col.name);
    PutU8(&footer, static_cast<uint8_t>(col.type));
    PutU8(&footer, col.encrypted ? 1 : 0);
    PutU8(&footer, static_cast<uint8_t>(col.scheme));
    PutU64(&footer, col.key_id);
    PutU8(&footer, col.hom_avg ? 1 : 0);
    PutU8(&footer, static_cast<uint8_t>(d.rep()));
    PutU8(&footer, d.has_nulls() ? 1 : 0);
    PutU64(&footer, pg.offset);
    PutU64(&footer, pg.len);
    PutU64(&footer, pg.zone.null_count);
    PutU8(&footer, pg.zone.has_range ? 1 : 0);
    if (pg.zone.has_range) {
      PutBytes(&footer, pg.zone.min.Serialize());
      PutBytes(&footer, pg.zone.max.Serialize());
    }
  }

  std::string out;
  out.resize(footer_offset + footer.size() + kTrailerSize);
  char* frame = &out[0];
  char* p = WriteRaw(frame, kMagic, sizeof(kMagic));
  p = WriteVal(p, kVersion);
  p = WriteVal(p, static_cast<uint64_t>(t.num_rows()));
  WriteVal(p, static_cast<uint32_t>(num_cols));
  MPQ_RETURN_NOT_OK(
      RunMorsels(sched, parts.size(), 1, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          const size_t c = parts[k].col;
          WritePagePart(t.col(c), pages[c], parts[k], frame);
        }
        return Status::OK();
      }));
  p = WriteRaw(frame + footer_offset, footer.data(), footer.size());
  p = WriteVal(p, footer_offset);
  WriteVal(p, SegmentChecksum(frame, out.size() - 8, sched));
  return out;
}

bool ZoneMayMatch(const SegmentZone& z, CmpOp op, const Value& v) {
  // NULL rows satisfy exactly the predicates EvalCmp(op, NULL, v) does
  // (NULLs sort before every non-null value in the engine's total order).
  if (z.null_count > 0 && EvalCmp(op, Value::Null(), v)) return true;
  if (z.null_count >= z.num_rows) return false;  // no non-null rows left
  if (!z.has_range) return true;                 // no stats: assume a match
  switch (op) {
    case CmpOp::kEq:
      return EvalCmp(CmpOp::kLe, z.min, v) && EvalCmp(CmpOp::kGe, z.max, v);
    case CmpOp::kNe:
      // Only an all-equal segment whose single value is v has no kNe row.
      return !(EvalCmp(CmpOp::kEq, z.min, v) &&
               EvalCmp(CmpOp::kEq, z.max, v));
    case CmpOp::kLt:
      return EvalCmp(CmpOp::kLt, z.min, v);
    case CmpOp::kLe:
      return EvalCmp(CmpOp::kLe, z.min, v);
    case CmpOp::kGt:
      return EvalCmp(CmpOp::kGt, z.max, v);
    case CmpOp::kGe:
      return EvalCmp(CmpOp::kGe, z.max, v);
  }
  return true;
}

Result<SegmentReader> SegmentReader::Open(std::string bytes,
                                           MorselScheduler* sched) {
  SegmentReader sr;
  sr.bytes_ = std::move(bytes);
  const std::string& b = sr.bytes_;
  if (b.size() < kHeaderSize + kTrailerSize) return Corrupt();

  Reader r{b.data(), b.size() - kTrailerSize};
  char magic[4];
  uint8_t version;
  if (!r.Take(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 || !r.U8(&version)) {
    return Corrupt();
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported segment version " +
                                   std::to_string(version));
  }

  uint64_t stored_sum;
  std::memcpy(&stored_sum, b.data() + b.size() - 8, 8);
  if (SegmentChecksum(b.data(), b.size() - 8, sched) != stored_sum) {
    return Corrupt();
  }

  uint32_t num_cols;
  if (!r.U64(&sr.num_rows_) || !r.U32(&num_cols)) return Corrupt();
  if (sr.num_rows_ > kMaxSegmentRows) return Corrupt();

  uint64_t footer_offset;
  std::memcpy(&footer_offset, b.data() + b.size() - 16, 8);
  if (footer_offset < kHeaderSize ||
      footer_offset > b.size() - kTrailerSize) {
    return Corrupt();
  }

  Reader f{b.data(), b.size() - kTrailerSize, footer_offset};
  for (uint32_t c = 0; c < num_cols; ++c) {
    ColumnEntry e;
    uint8_t type, encrypted, scheme, hom_avg, has_nulls, has_range;
    uint64_t null_count;
    if (!f.U32(&e.meta.attr) || !f.Bytes(&e.meta.name) || !f.U8(&type) ||
        type > static_cast<uint8_t>(DataType::kString) || !f.U8(&encrypted) ||
        !f.U8(&scheme) ||
        scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
        !f.U64(&e.meta.key_id) || !f.U8(&hom_avg) || !f.U8(&e.rep) ||
        e.rep > static_cast<uint8_t>(ColumnRep::kCell) || !f.U8(&has_nulls) ||
        !f.U64(&e.page_offset) || !f.U64(&e.page_len) ||
        !f.U64(&null_count) || !f.U8(&has_range)) {
      return Corrupt();
    }
    e.meta.type = static_cast<DataType>(type);
    e.meta.encrypted = encrypted != 0;
    e.meta.scheme = static_cast<EncScheme>(scheme);
    e.meta.hom_avg = hom_avg != 0;
    e.has_nulls = has_nulls != 0;
    if (e.page_offset < kHeaderSize || e.page_len > footer_offset ||
        e.page_offset > footer_offset - e.page_len) {
      return Corrupt();
    }
    if (null_count > sr.num_rows_) return Corrupt();
    SegmentZone z;
    z.null_count = null_count;
    z.num_rows = sr.num_rows_;
    if (has_range != 0) {
      std::string mn, mx;
      if (!f.Bytes(&mn) || !f.Bytes(&mx)) return Corrupt();
      Result<Value> vmin = Value::Deserialize(mn);
      Result<Value> vmax = Value::Deserialize(mx);
      if (!vmin.ok() || !vmax.ok()) return Corrupt();
      z.min = std::move(*vmin);
      z.max = std::move(*vmax);
      z.has_range = true;
    }
    sr.columns_.push_back(e.meta);
    sr.entries_.push_back(std::move(e));
    sr.zones_.push_back(std::move(z));
  }
  if (f.pos != b.size() - kTrailerSize) return Corrupt();
  return sr;
}

Result<Table> SegmentReader::Decode(MorselScheduler* sched) const {
  // One morsel per column page; the lowest failing column's Status wins, as
  // in a column-by-column loop.
  std::vector<ColumnData> cols(entries_.size());
  MPQ_RETURN_NOT_OK(RunMorsels(
      SchedulerFor(num_rows_, sched), entries_.size(), 1, [&](size_t begin, size_t end) -> Status {
        for (size_t c = begin; c < end; ++c) {
          const ColumnEntry& e = entries_[c];
          Reader r{bytes_.data() + e.page_offset,
                   static_cast<size_t>(e.page_len)};
          std::vector<uint8_t> nulls;
          if (e.has_nulls && !DecodeNullMask(&r, num_rows_, &nulls)) {
            return Corrupt();
          }
          MPQ_RETURN_NOT_OK(DecodeColumnPage(&r, static_cast<ColumnRep>(e.rep),
                                             num_rows_, std::move(nulls),
                                             &cols[c]));
          if (r.pos != r.size || cols[c].size() != num_rows_) return Corrupt();
        }
        return Status::OK();
      }));
  Table t;
  for (size_t c = 0; c < cols.size(); ++c) {
    t.AddColumn(columns_[c], std::move(cols[c]));
  }
  if (entries_.empty()) t.num_rows_ = num_rows_;
  return t;
}

Result<SegmentedTable> SegmentedTable::FromTable(const Table& t,
                                                 size_t rows_per_segment) {
  if (rows_per_segment == 0) rows_per_segment = std::max<size_t>(t.num_rows(), 1);
  SegmentedTable st;
  st.columns_ = t.columns();
  st.total_rows_ = t.num_rows();
  size_t num_segments =
      std::max<size_t>(1, (t.num_rows() + rows_per_segment - 1) /
                              rows_per_segment);
  for (size_t s = 0; s < num_segments; ++s) {
    size_t begin = s * rows_per_segment;
    size_t end = std::min(begin + rows_per_segment, t.num_rows());
    Table slice;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      ColumnData part(t.col(c).rep());
      part.AppendRange(t.col(c), begin, end);
      slice.AddColumn(t.columns()[c], std::move(part));
    }
    if (t.num_columns() == 0) slice.num_rows_ = end - begin;
    MPQ_ASSIGN_OR_RETURN(std::string bytes, EncodeSegment(slice));
    MPQ_ASSIGN_OR_RETURN(SegmentReader sr, SegmentReader::Open(std::move(bytes)));
    st.segments_.push_back(std::move(sr));
  }
  return st;
}

uint64_t SegmentedTable::encoded_bytes() const {
  uint64_t total = 0;
  for (const SegmentReader& s : segments_) total += s.encoded_size();
  return total;
}

Result<Table> SegmentedTable::Decode() const {
  Table out;
  bool first = true;
  for (const SegmentReader& s : segments_) {
    MPQ_ASSIGN_OR_RETURN(Table part, s.Decode());
    if (first) {
      out = std::move(part);
      first = false;
      continue;
    }
    for (size_t c = 0; c < out.num_columns(); ++c) {
      out.col_mut(c).MoveAppend(std::move(part.col_mut(c)));
    }
    out.num_rows_ += part.num_rows();
  }
  return out;
}

Result<const Table*> SegmentedTable::Materialize() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  if (memo_->table == nullptr) {
    MPQ_ASSIGN_OR_RETURN(Table t, Decode());
    memo_->table = std::make_unique<Table>(std::move(t));
  }
  return memo_->table.get();
}

}  // namespace mpq
