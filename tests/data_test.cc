// Unit tests for schema, dataset, row batches, and CSV persistence.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/dataset.h"
#include "data/row_batch.h"
#include "data/schema.h"

namespace ppdm::data {
namespace {

Schema TwoFieldSchema() {
  return Schema({{"age", AttributeKind::kContinuous, 20.0, 80.0},
                 {"elevel", AttributeKind::kDiscrete, 0.0, 4.0}});
}

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, FieldAccessors) {
  const Schema s = TwoFieldSchema();
  EXPECT_EQ(s.NumFields(), 2u);
  EXPECT_EQ(s.Field(0).name, "age");
  EXPECT_DOUBLE_EQ(s.Field(0).Range(), 60.0);
  EXPECT_EQ(s.Field(1).kind, AttributeKind::kDiscrete);
}

TEST(SchemaTest, IndexOfFindsFields) {
  const Schema s = TwoFieldSchema();
  auto idx = s.IndexOf("elevel");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(s.IndexOf("salary").ok());
  EXPECT_EQ(s.IndexOf("salary").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ValidateAcceptsGoodSchema) {
  EXPECT_TRUE(TwoFieldSchema().Validate().ok());
}

TEST(SchemaTest, ValidateRejectsDuplicates) {
  const Schema s({{"x", AttributeKind::kContinuous, 0.0, 1.0},
                  {"x", AttributeKind::kContinuous, 0.0, 1.0}});
  EXPECT_EQ(s.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateRejectsEmptyDomain) {
  const Schema s({{"x", AttributeKind::kContinuous, 1.0, 1.0}});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsEmptyName) {
  const Schema s({{"", AttributeKind::kContinuous, 0.0, 1.0}});
  EXPECT_FALSE(s.Validate().ok());
}

// ----------------------------------------------------------------- Dataset

TEST(DatasetTest, AddRowAndAccess) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({25.0, 1.0}, 0);
  d.AddRow({60.0, 3.0}, 1);
  EXPECT_EQ(d.NumRows(), 2u);
  EXPECT_EQ(d.NumCols(), 2u);
  EXPECT_DOUBLE_EQ(d.At(0, 0), 25.0);
  EXPECT_DOUBLE_EQ(d.At(1, 1), 3.0);
  EXPECT_EQ(d.Label(0), 0);
  EXPECT_EQ(d.Label(1), 1);
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DatasetTest, ColumnIsContiguous) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({25.0, 1.0}, 0);
  d.AddRow({60.0, 3.0}, 1);
  const std::vector<double>& ages = d.Column(0);
  ASSERT_EQ(ages.size(), 2u);
  EXPECT_DOUBLE_EQ(ages[0], 25.0);
  EXPECT_DOUBLE_EQ(ages[1], 60.0);
}

TEST(DatasetTest, RowMaterialization) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({42.0, 2.0}, 1);
  const std::vector<double> row = d.Row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 42.0);
  EXPECT_DOUBLE_EQ(row[1], 2.0);
}

TEST(DatasetTest, SetOverwritesCell) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({42.0, 2.0}, 1);
  d.Set(0, 0, 43.5);
  EXPECT_DOUBLE_EQ(d.At(0, 0), 43.5);
}

TEST(DatasetTest, SelectPreservesOrderAndLabels) {
  Dataset d(TwoFieldSchema(), 2);
  for (int i = 0; i < 10; ++i) {
    d.AddRow({20.0 + i, static_cast<double>(i % 5)}, i % 2);
  }
  const Dataset sel = d.Select({7, 2, 9});
  ASSERT_EQ(sel.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(sel.At(0, 0), 27.0);
  EXPECT_DOUBLE_EQ(sel.At(1, 0), 22.0);
  EXPECT_EQ(sel.Label(2), 1);
  EXPECT_TRUE(sel.Validate().ok());
}

TEST(DatasetTest, ClassCounts) {
  Dataset d(TwoFieldSchema(), 2);
  for (int i = 0; i < 9; ++i) {
    d.AddRow({20.0 + i, 0.0}, i < 6 ? 0 : 1);
  }
  const auto counts = d.ClassCounts();
  EXPECT_EQ(counts[0], 6u);
  EXPECT_EQ(counts[1], 3u);
}

TEST(DatasetTest, MutableColumnWritesThrough) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({42.0, 2.0}, 0);
  (*d.MutableColumn(0))[0] = 50.0;
  EXPECT_DOUBLE_EQ(d.At(0, 0), 50.0);
}

TEST(DatasetTest, ReservePresizesWithoutChangingContents) {
  Dataset d(TwoFieldSchema(), 2);
  d.Reserve(100);
  EXPECT_EQ(d.NumRows(), 0u);
  d.AddRow({25.0, 1.0}, 0);
  const double* before = d.Column(0).data();
  // 100 reserved rows: the next 99 appends must not reallocate.
  for (int i = 0; i < 99; ++i) d.AddRow({30.0 + i, 2.0}, 1);
  EXPECT_EQ(d.Column(0).data(), before);
  EXPECT_EQ(d.NumRows(), 100u);
  EXPECT_TRUE(d.Validate().ok());
}

// -------------------------------------------------------------- RowBatch

TEST(RowBatchTest, ViewsRowMajorBufferWithLabels) {
  const std::vector<double> values{25.0, 1.0,   //
                                   60.0, 3.0,   //
                                   40.0, 2.0};
  const std::vector<int> labels{0, 1, 0};
  const RowBatch batch(values.data(), 3, 2, labels.data());
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.num_cols(), 2u);
  EXPECT_TRUE(batch.has_labels());
  EXPECT_DOUBLE_EQ(batch.At(1, 0), 60.0);
  EXPECT_DOUBLE_EQ(batch.row(2)[1], 2.0);
  EXPECT_EQ(batch.Label(1), 1);

  const RowBatch slice = batch.Slice(1, 2);
  EXPECT_EQ(slice.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(slice.At(0, 0), 60.0);
  EXPECT_EQ(slice.Label(1), 0);
}

TEST(RowBatchTest, AddRowsScattersIntoColumns) {
  const std::vector<double> values{25.0, 1.0, 60.0, 3.0};
  const std::vector<int> labels{0, 1};
  Dataset d(TwoFieldSchema(), 2);
  d.AddRows(RowBatch(values.data(), 2, 2, labels.data()));
  ASSERT_EQ(d.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(d.At(0, 0), 25.0);
  EXPECT_DOUBLE_EQ(d.At(1, 1), 3.0);
  EXPECT_EQ(d.Label(1), 1);
  EXPECT_TRUE(d.Validate().ok());
}

// --------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTrip) {
  Dataset d(TwoFieldSchema(), 2);
  d.AddRow({25.75, 1.0}, 0);
  d.AddRow({60.125, 3.0}, 1);
  const std::string path = testing::TempDir() + "/ppdm_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());

  auto loaded = ReadCsv(TwoFieldSchema(), 2, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& back = loaded.value();
  ASSERT_EQ(back.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(back.At(0, 0), 25.75);
  EXPECT_DOUBLE_EQ(back.At(1, 0), 60.125);
  EXPECT_EQ(back.Label(0), 0);
  EXPECT_EQ(back.Label(1), 1);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadRejectsMissingFile) {
  auto r = ReadCsv(TwoFieldSchema(), 2, "/nonexistent/nope.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, ReadRejectsWrongHeader) {
  const std::string path = testing::TempDir() + "/ppdm_badheader.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("foo,elevel,class\n25,1,0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadCsv(TwoFieldSchema(), 2, path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, ReadRejectsOutOfRangeLabel) {
  const std::string path = testing::TempDir() + "/ppdm_badlabel.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("age,elevel,class\n25,1,7\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadCsv(TwoFieldSchema(), 2, path).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, ReadRejectsNonFiniteValues) {
  // strtod accepts these spellings; the reader must not. Each file's bad
  // value sits on line 3, in the named column.
  const std::string path = testing::TempDir() + "/ppdm_nonfinite.csv";
  const struct {
    const char* body;
    const char* column;
  } cases[] = {{"age,elevel,class\n25,1,0\nnan,2,1\n", "age"},
               {"age,elevel,class\n25,1,0\n30,inf,1\n", "elevel"},
               {"age,elevel,class\n25,1,0\n-inf,2,1\n", "age"}};
  for (const auto& c : cases) {
    {
      FILE* f = std::fopen(path.c_str(), "w");
      std::fputs(c.body, f);
      std::fclose(f);
    }
    const auto whole = ReadCsv(TwoFieldSchema(), 2, path);
    ASSERT_FALSE(whole.ok()) << c.body;
    EXPECT_EQ(whole.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(whole.status().message().find("line 3"), std::string::npos)
        << whole.status().ToString();
    EXPECT_NE(whole.status().message().find(std::string("'") + c.column +
                                            "'"),
              std::string::npos)
        << whole.status().ToString();
    const auto batches =
        ReadCsvBatches(TwoFieldSchema(), 2, path, /*batch_rows=*/4,
                       [](const RowBatch&) { return Status::Ok(); });
    ASSERT_FALSE(batches.ok()) << c.body;
    EXPECT_EQ(batches.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadSkipsBlankLines) {
  const std::string path = testing::TempDir() + "/ppdm_blank.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("age,elevel,class\n25,1,0\n\n30,2,1\n", f);
    std::fclose(f);
  }
  auto r = ReadCsv(TwoFieldSchema(), 2, path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().NumRows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadCsvBatchesStreamsRecordBatches) {
  Dataset d(TwoFieldSchema(), 2);
  for (int i = 0; i < 7; ++i) {
    d.AddRow({20.0 + i, static_cast<double>(i % 5)}, i % 2);
  }
  const std::string path = testing::TempDir() + "/ppdm_batches.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());

  // Stream in batches of 3 and rebuild: 3 + 3 + 1 rows, same table.
  Dataset rebuilt(TwoFieldSchema(), 2);
  std::vector<std::size_t> batch_sizes;
  auto total = ReadCsvBatches(TwoFieldSchema(), 2, path, /*batch_rows=*/3,
                              [&](const RowBatch& batch) {
                                batch_sizes.push_back(batch.num_rows());
                                rebuilt.AddRows(batch);
                                return Status::Ok();
                              });
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(total.value(), 7u);
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{3, 3, 1}));
  ASSERT_EQ(rebuilt.NumRows(), d.NumRows());
  for (std::size_t r = 0; r < d.NumRows(); ++r) {
    EXPECT_EQ(rebuilt.Row(r), d.Row(r));
    EXPECT_EQ(rebuilt.Label(r), d.Label(r));
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ReadCsvBatchesStopsOnSinkError) {
  Dataset d(TwoFieldSchema(), 2);
  for (int i = 0; i < 6; ++i) d.AddRow({20.0 + i, 1.0}, 0);
  const std::string path = testing::TempDir() + "/ppdm_sinkstop.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());

  int calls = 0;
  auto total = ReadCsvBatches(TwoFieldSchema(), 2, path, /*batch_rows=*/2,
                              [&](const RowBatch&) {
                                ++calls;
                                return Status::FailedPrecondition("full");
                              });
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppdm::data
