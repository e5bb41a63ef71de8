// Unit tests for the columnar storage layer: typed ColumnData vectors,
// null masks, heterogeneous demotion, selection-vector gathers, chunk
// splicing, and the per-column wire format fragments cross the simulated
// network as.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keyring.h"
#include "exec/table.h"

namespace mpq {
namespace {

Cell I(int64_t v) { return Cell(Value(v)); }
Cell D(double v) { return Cell(Value(v)); }
Cell S(std::string v) { return Cell(Value(std::move(v))); }

TEST(ColumnDataTest, TypedAppendStaysTyped) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  c.Append(I(2));
  EXPECT_EQ(c.rep(), ColumnRep::kInt64);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.i64()[0], 1);
  EXPECT_EQ(c.i64()[1], 2);
  EXPECT_FALSE(c.has_nulls());
  EXPECT_EQ(c.GetCell(1).plain().AsInt(), 2);
}

TEST(ColumnDataTest, NullsGoToTheMaskNotTheRep) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(7));
  c.Append(Cell(Value::Null()));
  c.Append(I(9));
  EXPECT_EQ(c.rep(), ColumnRep::kInt64);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetCell(1).plain().is_null());
  EXPECT_EQ(c.GetCell(2).plain().AsInt(), 9);
}

TEST(ColumnDataTest, MixedTypesDemoteToCells) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  c.Append(D(2.5));  // an int column cannot hold a double bit-exactly
  EXPECT_EQ(c.rep(), ColumnRep::kCell);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetCell(0).plain().AsInt(), 1);
  EXPECT_EQ(c.GetCell(1).plain().AsDouble(), 2.5);
}

TEST(ColumnDataTest, EncryptedCellsDemotePlainColumns) {
  ColumnData c(ColumnRep::kInt64);
  c.Append(I(1));
  KeyMaterial km = MakeKeyMaterial(3, 1);
  EncValue ev =
      *EncryptValue(Value(int64_t{5}), EncScheme::kDeterministic, 1, km, 1);
  c.Append(Cell(ev));
  EXPECT_EQ(c.rep(), ColumnRep::kCell);
  EXPECT_TRUE(c.GetCell(1).is_encrypted());
}

TEST(ColumnDataTest, SelectionGatherAcrossReps) {
  ColumnData src(ColumnRep::kString);
  src.Append(S("a"));
  src.Append(S("b"));
  src.Append(Cell(Value::Null()));
  src.Append(S("d"));
  SelectionVector sel = {3, 0, 2};
  ColumnData dst(ColumnRep::kString);
  dst.AppendSelected(src, sel.data(), sel.size());
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.str()[0], "d");
  EXPECT_EQ(dst.str()[1], "a");
  EXPECT_TRUE(dst.IsNull(2));

  // Gather into a mismatched rep falls back to cell appends but keeps the
  // same logical content.
  ColumnData cells(ColumnRep::kCell);
  cells.AppendSelected(src, sel.data(), sel.size());
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells.GetCell(0).plain().AsString(), "d");
  EXPECT_TRUE(cells.GetCell(2).plain().is_null());
}

TEST(ColumnDataTest, MoveAppendSplicesBuffers) {
  ColumnData a(ColumnRep::kInt64);
  a.Append(I(1));
  ColumnData b(ColumnRep::kInt64);
  b.Append(I(2));
  b.Append(Cell(Value::Null()));
  a.MoveAppend(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.i64()[1], 2);
  EXPECT_TRUE(a.IsNull(2));
  EXPECT_EQ(b.size(), 0u);

  // Mismatched reps splice via demotion without losing values.
  ColumnData c(ColumnRep::kDouble);
  c.Append(D(0.5));
  a.MoveAppend(std::move(c));
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.rep(), ColumnRep::kCell);
  EXPECT_EQ(a.GetCell(3).plain().AsDouble(), 0.5);
}

TEST(ColumnDataTest, ColumnFromCellsPicksRepFromContent) {
  EXPECT_EQ(ColumnFromCells({I(1), I(2)}).rep(), ColumnRep::kInt64);
  EXPECT_EQ(ColumnFromCells({Cell(Value::Null()), D(1.0)}).rep(),
            ColumnRep::kDouble);
  EXPECT_EQ(ColumnFromCells({S("x")}).rep(), ColumnRep::kString);
  EXPECT_EQ(ColumnFromCells({I(1), S("x")}).rep(), ColumnRep::kCell);
}

TEST(ColumnDataTest, ByteSizeMatchesPerCellAccounting) {
  ColumnData c(ColumnRep::kString);
  c.Append(S("abc"));
  c.Append(Cell(Value::Null()));
  // string len+4, null 1 — the historical per-Cell numbers.
  EXPECT_EQ(c.ByteSize(), 3u + 4u + 1u);
  ColumnData ints(ColumnRep::kInt64);
  ints.Append(I(1));
  ints.Append(I(2));
  EXPECT_EQ(ints.ByteSize(), 16u);
}

class TableSerdeTest : public ::testing::Test {
 protected:
  static Table Sample() {
    std::vector<ExecColumn> cols(3);
    cols[0].attr = 1;
    cols[0].name = "k";
    cols[0].type = DataType::kInt64;
    cols[1].attr = 2;
    cols[1].name = "s";
    cols[1].type = DataType::kString;
    cols[2].attr = 3;
    cols[2].name = "x";
    cols[2].type = DataType::kDouble;
    Table t(std::move(cols));
    t.AddRow({I(10), S("alpha"), D(1.5)});
    t.AddRow({I(20), Cell(Value::Null()), D(-2.25)});
    t.AddRow({I(30), S("beta"), Cell(Value::Null())});
    return t;
  }
};

TEST_F(TableSerdeTest, RoundTripPlainTable) {
  Table t = Sample();
  std::string wire = t.SerializeColumns();
  Result<Table> back = Table::DeserializeColumns(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->num_columns(), t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(back->columns()[c].attr, t.columns()[c].attr);
    EXPECT_EQ(back->columns()[c].name, t.columns()[c].name);
    EXPECT_EQ(back->col(c).rep(), t.col(c).rep());
  }
  EXPECT_EQ(back->ToString(10), t.ToString(10));
  EXPECT_EQ(back->ByteSize(), t.ByteSize());
}

TEST_F(TableSerdeTest, RoundTripEncryptedColumn) {
  Table t = Sample();
  KeyMaterial km = MakeKeyMaterial(7, 0);
  std::vector<EncValue> encs;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    encs.push_back(
        *EncryptValue(t.col(0).GetValue(r), EncScheme::kOpe, 0, km, r + 1));
  }
  t.SetColumnData(0, ColumnFromEnc(std::move(encs)));
  t.columns()[0].encrypted = true;
  t.columns()[0].scheme = EncScheme::kOpe;

  Result<Table> back = Table::DeserializeColumns(t.SerializeColumns());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->col(0).rep(), ColumnRep::kEnc);
  EXPECT_TRUE(back->columns()[0].encrypted);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(back->col(0).EncAt(r).ToValue(), t.col(0).EncAt(r).ToValue())
        << "row " << r;
  }
}

TEST_F(TableSerdeTest, RoundTripHeterogeneousColumn) {
  std::vector<ExecColumn> cols(1);
  cols[0].attr = 9;
  cols[0].name = "m";
  Table t(std::move(cols));
  t.AddRow({I(1)});
  t.AddRow({S("mixed")});
  t.AddRow({Cell(Value::Null())});
  ASSERT_EQ(t.col(0).rep(), ColumnRep::kCell);
  Result<Table> back = Table::DeserializeColumns(t.SerializeColumns());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToString(10), t.ToString(10));
}

TEST_F(TableSerdeTest, ZeroRowAndZeroColumnTables) {
  Table t = Sample();
  Table empty(t.columns());
  Result<Table> back = Table::DeserializeColumns(empty.SerializeColumns());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 3u);

  Table colless;
  colless.AddRow({});
  colless.AddRow({});
  Result<Table> back2 = Table::DeserializeColumns(colless.SerializeColumns());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2->num_rows(), 2u);
  EXPECT_EQ(back2->num_columns(), 0u);
}

TEST_F(TableSerdeTest, CorruptBytesRejectedNotCrashed) {
  Table t = Sample();
  std::string wire = t.SerializeColumns();
  EXPECT_FALSE(Table::DeserializeColumns("").ok());
  EXPECT_FALSE(Table::DeserializeColumns("garbage").ok());
  EXPECT_FALSE(Table::DeserializeColumns(wire.substr(0, wire.size() / 2)).ok());
  std::string extra = wire + "x";
  EXPECT_FALSE(Table::DeserializeColumns(extra).ok());
}

// ------------------------------------------------------ dictionary coding ---

namespace dict_test {

/// A one-string-column table with heavily repeated values (and a NULL), the
/// shape the wire dictionary encoding exists for.
Table RepetitiveStrings(size_t rows) {
  std::vector<ExecColumn> cols(1);
  cols[0].attr = 1;
  cols[0].name = "s";
  cols[0].type = DataType::kString;
  Table t(std::move(cols));
  for (size_t r = 0; r < rows; ++r) {
    if (r % 17 == 11) {
      t.AddRow({Cell(Value::Null())});
    } else {
      t.AddRow({S("shipmode-" + std::to_string(r % 4))});
    }
  }
  return t;
}

}  // namespace dict_test

TEST(ColumnDictTest, EncodeAssignsFirstOccurrenceCodesAndProbeMisses) {
  ColumnData c(ColumnRep::kString);
  c.Append(S("b"));
  c.Append(S("a"));
  c.Append(Cell(Value::Null()));
  c.Append(S("b"));
  ColumnDict dict(&c);
  std::vector<uint32_t> codes(c.size());
  ASSERT_TRUE(dict.EncodeRange(0, c.size(), codes.data()).ok());
  EXPECT_EQ(codes[0], 0u);  // "b" interned first
  EXPECT_EQ(codes[1], 1u);  // then "a"
  EXPECT_EQ(codes[2], 0u);  // null rows get padding code 0
  EXPECT_EQ(codes[3], 0u);  // repeated "b" reuses its code
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(c.str()[dict.RepRow(1)], "a");

  ColumnData probe(ColumnRep::kString);
  probe.Append(S("a"));
  probe.Append(S("unseen"));
  std::vector<uint32_t> pcodes(probe.size());
  ASSERT_TRUE(dict.ProbeRange(probe, 0, probe.size(), pcodes.data()).ok());
  EXPECT_EQ(pcodes[0], 1u);
  EXPECT_EQ(pcodes[1], ColumnDict::kMiss);
}

TEST(ColumnDictTest, RndCiphertextsRejectedAsKeys) {
  KeyMaterial km = MakeKeyMaterial(3, 1);
  ColumnData c(ColumnRep::kEnc);
  c.Append(Cell(*EncryptValue(Value(int64_t{5}), EncScheme::kRandom, 1, km,
                              /*fresh_nonce=*/9)));
  ColumnDict dict(&c);
  std::vector<uint32_t> codes(1);
  Status s = dict.EncodeRange(0, 1, codes.data());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
}

TEST_F(TableSerdeTest, DictEncodedStringsRoundTripAndShrinkTheWire) {
  Table t = dict_test::RepetitiveStrings(500);
  std::string wire = t.SerializeColumns();
  // 4 distinct ~11-byte values over 500 rows: the dictionary form (values
  // once + 4-byte codes) must beat the plain form (values repeated).
  uint64_t plain_payload = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    plain_payload += 4 + (t.col(0).IsNull(r) ? 0 : t.col(0).str()[r].size());
  }
  EXPECT_LT(wire.size(), plain_payload);

  Result<Table> back = Table::DeserializeColumns(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  EXPECT_EQ(back->col(0).rep(), ColumnRep::kString);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(back->col(0).IsNull(r), t.col(0).IsNull(r)) << "row " << r;
    if (!t.col(0).IsNull(r)) {
      ASSERT_EQ(back->col(0).str()[r], t.col(0).str()[r]) << "row " << r;
    }
  }
  EXPECT_EQ(back->ByteSize(), t.ByteSize());
}

TEST_F(TableSerdeTest, UniqueStringsStayPlainOnTheWire) {
  // All-distinct values: a dictionary would only add overhead, so the
  // deterministic cost rule must keep the plain encoding.
  std::vector<ExecColumn> cols(1);
  cols[0].attr = 1;
  cols[0].name = "s";
  cols[0].type = DataType::kString;
  Table t(std::move(cols));
  for (int r = 0; r < 50; ++r) t.AddRow({S("unique-" + std::to_string(r))});
  Result<Table> back = Table::DeserializeColumns(t.SerializeColumns());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToString(60), t.ToString(60));
}

TEST_F(TableSerdeTest, DictCorruptionRejectedNotCrashed) {
  Table t = dict_test::RepetitiveStrings(64);
  std::string wire = t.SerializeColumns();
  ASSERT_TRUE(Table::DeserializeColumns(wire).ok());

  // The row codes are the last 4·rows bytes of the single-column frame;
  // smash the final code to an out-of-range value.
  std::string bad = wire;
  bad[bad.size() - 1] = '\xff';
  bad[bad.size() - 2] = '\xff';
  Result<Table> r = Table::DeserializeColumns(bad);
  EXPECT_FALSE(r.ok());

  // Truncations through the dictionary region must fail cleanly too.
  for (size_t cut : {wire.size() - 3, wire.size() / 2, wire.size() / 4}) {
    EXPECT_FALSE(Table::DeserializeColumns(wire.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

// ------------------------------------------------------------ serde fuzz ---

namespace fuzz {

/// A frame exercising every encoding the deserializer knows: typed int64 /
/// double / string columns with nulls, a dictionary-eligible repetitive
/// string column, a ciphertext column, and a heterogeneous cell column.
Table EveryRepTable() {
  std::vector<ExecColumn> cols(6);
  cols[0].attr = 1;
  cols[0].name = "k";
  cols[0].type = DataType::kInt64;
  cols[1].attr = 2;
  cols[1].name = "x";
  cols[1].type = DataType::kDouble;
  cols[2].attr = 3;
  cols[2].name = "s";
  cols[2].type = DataType::kString;
  cols[3].attr = 4;
  cols[3].name = "mode";
  cols[3].type = DataType::kString;
  cols[4].attr = 5;
  cols[4].name = "enc";
  cols[4].type = DataType::kInt64;
  cols[4].encrypted = true;
  cols[4].scheme = EncScheme::kDeterministic;
  cols[5].attr = 6;
  cols[5].name = "mix";
  Table t(std::move(cols));
  KeyMaterial km = MakeKeyMaterial(11, 2);
  for (int64_t r = 0; r < 64; ++r) {
    Cell enc(*EncryptValue(Value(r % 5), EncScheme::kDeterministic, 2, km, 0));
    Cell mix = r % 3 == 0   ? I(r)
               : r % 3 == 1 ? S("m" + std::to_string(r))
                            : Cell(Value::Null());
    t.AddRow({r % 7 == 3 ? Cell(Value::Null()) : I(r * 1001),
              r % 5 == 4 ? Cell(Value::Null()) : D(r * 0.125),
              S("uniq-" + std::to_string(r)),
              r % 11 == 6 ? Cell(Value::Null())
                          : S("mode-" + std::to_string(r % 3)),
              enc, mix});
  }
  return t;
}

}  // namespace fuzz

// Deterministic mutation fuzz over the column wire format: >= 10k frames
// derived from a valid one by truncation, bit flips, byte smashes, and
// garbage extension. Every mutant must come back as ok-or-Status — never a
// crash, sanitizer report, or hang — and accepted mutants must themselves
// re-serialize and round-trip (the decoder only ever yields well-formed
// tables).
TEST(TableSerdeFuzzTest, MutatedFramesNeverCrashTheDeserializer) {
  const std::string wire = fuzz::EveryRepTable().SerializeColumns();
  ASSERT_TRUE(Table::DeserializeColumns(wire).ok());
  uint64_t rng = 0x5eedf00dcafe1234ull;
  auto next = [&rng] { return rng = SplitMix64(rng); };
  size_t accepted = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::string mut = wire;
    switch (next() % 4) {
      case 0:  // truncate
        mut.resize(next() % (wire.size() + 1));
        break;
      case 1: {  // flip 1-8 bits
        size_t flips = 1 + next() % 8;
        for (size_t f = 0; f < flips && !mut.empty(); ++f) {
          mut[next() % mut.size()] ^= static_cast<char>(1u << (next() % 8));
        }
        break;
      }
      case 2: {  // smash 1-9 whole bytes (length prefixes, enum tags)
        size_t smashes = 1 + next() % 9;
        for (size_t s = 0; s < smashes && !mut.empty(); ++s) {
          mut[next() % mut.size()] = static_cast<char>(next() % 256);
        }
        break;
      }
      default: {  // truncate then extend with garbage
        mut.resize(next() % (wire.size() + 1));
        size_t extra = next() % 32;
        for (size_t e = 0; e < extra; ++e) {
          mut.push_back(static_cast<char>(next() % 256));
        }
        break;
      }
    }
    Result<Table> r = Table::DeserializeColumns(mut);
    if (!r.ok()) continue;
    ++accepted;
    // An accepted frame must decode to a self-consistent table.
    Result<Table> again = Table::DeserializeColumns(r->SerializeColumns());
    ASSERT_TRUE(again.ok()) << "accepted mutant failed to round-trip";
    ASSERT_EQ(again->num_rows(), r->num_rows());
    ASSERT_EQ(again->num_columns(), r->num_columns());
  }
  // Bit flips in string payload bytes (among others) legitimately survive;
  // what matters is that nothing crashed and survivors round-tripped.
  SUCCEED() << accepted << " mutants accepted";
}

}  // namespace
}  // namespace mpq