// Shared test assertion: strict byte identity between two result tables —
// schema, plaintext values and ciphertext bytes alike.
//
// Cells are compared inside the full expression that reads them:
// Table::row(r) materializes a temporary row, so a reference bound to one of
// its cells would dangle past the statement.

#ifndef MPQ_TESTS_TABLE_IDENTITY_H_
#define MPQ_TESTS_TABLE_IDENTITY_H_

#include <gtest/gtest.h>

#include "exec/table.h"

namespace mpq::testing {

inline void ExpectCellsIdentical(const Cell& a, const Cell& b,
                                 const char* where) {
  ASSERT_EQ(a.is_plain(), b.is_plain()) << where;
  if (a.is_plain()) {
    EXPECT_EQ(a.plain(), b.plain()) << where;
  } else {
    EXPECT_EQ(a.enc(), b.enc()) << where;
  }
}

inline void ExpectTablesIdentical(const Table& a, const Table& b,
                                  const char* where) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << where;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << where;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    EXPECT_EQ(a.columns()[i].attr, b.columns()[i].attr) << where;
    EXPECT_EQ(a.columns()[i].encrypted, b.columns()[i].encrypted) << where;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ExpectCellsIdentical(a.row(r)[c], b.row(r)[c], where);
    }
  }
}

}  // namespace mpq::testing

#endif  // MPQ_TESTS_TABLE_IDENTITY_H_
