#include <gtest/gtest.h>

#include "bat/bat.h"
#include "bat/string_heap.h"
#include "bat/table.h"
#include "mem/arena.h"
#include "mem/slab_allocator.h"

namespace doppio {
namespace {

TEST(BufferTest, AppendGrows) {
  Buffer buf;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(buf.Append(&i, sizeof(i)).ok());
  }
  EXPECT_EQ(buf.size(), 4000);
  const int* data = reinterpret_cast<const int*>(buf.data());
  EXPECT_EQ(data[0], 0);
  EXPECT_EQ(data[999], 999);
}

TEST(BufferTest, MoveTransfersOwnership) {
  Buffer a;
  ASSERT_TRUE(a.Append("hello", 5).ok());
  Buffer b = std::move(a);
  EXPECT_EQ(b.size(), 5);
  EXPECT_EQ(a.size(), 0);
}

TEST(StringHeapTest, Layout) {
  StringHeap heap;
  EXPECT_EQ(heap.size_bytes(), kHeapHeaderBytes);  // metadata block

  auto off1 = heap.Append("John Doe, Street");
  ASSERT_TRUE(off1.ok());
  EXPECT_EQ(*off1, kHeapHeaderBytes);
  auto off2 = heap.Append("Hans");
  ASSERT_TRUE(off2.ok());
  // 8-byte alignment: offsets are multiples of kHeapAlignment.
  EXPECT_EQ(*off2 % kHeapAlignment, 0u);
  EXPECT_GT(*off2, *off1);

  auto s1 = heap.Get(*off1);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, "John Doe, Street");
  auto s2 = heap.Get(*off2);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, "Hans");
}

TEST(StringHeapTest, NulTerminated) {
  StringHeap heap;
  auto off = heap.Append("abc");
  ASSERT_TRUE(off.ok());
  const char* raw = heap.GetUnchecked(*off);
  EXPECT_EQ(raw[3], '\0');  // length is not stored; readers scan for NUL
}

TEST(StringHeapTest, EmptyString) {
  StringHeap heap;
  auto off = heap.Append("");
  ASSERT_TRUE(off.ok());
  auto s = heap.Get(*off);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "");
}

TEST(StringHeapTest, OffsetValidation) {
  StringHeap heap;
  ASSERT_TRUE(heap.Append("x").ok());
  EXPECT_FALSE(heap.Get(3).ok());       // inside the metadata block
  EXPECT_FALSE(heap.Get(100000).ok());  // beyond the heap
}

TEST(BatTest, FixedWidthAppendAndGet) {
  Bat ints(ValueType::kInt32);
  ASSERT_TRUE(ints.AppendInt32(7).ok());
  ASSERT_TRUE(ints.AppendInt32(-3).ok());
  EXPECT_EQ(ints.count(), 2);
  EXPECT_EQ(ints.GetInt32(0), 7);
  EXPECT_EQ(ints.GetInt32(1), -3);
}

TEST(BatTest, ShortResultColumn) {
  Bat shorts(ValueType::kInt16);
  ASSERT_TRUE(shorts.AppendZeros(4).ok());
  EXPECT_EQ(shorts.count(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(shorts.GetInt16(i), 0);
}

TEST(BatTest, AppendZeroRowsToEmptyBat) {
  // An empty BAT owns no storage yet; zero-row scans append zero rows to
  // exactly such a result column (a null memset under UBSan before).
  Bat shorts(ValueType::kInt16);
  ASSERT_TRUE(shorts.AppendZeros(0).ok());
  EXPECT_EQ(shorts.count(), 0);
  ASSERT_TRUE(shorts.AppendZeros(2).ok());
  EXPECT_EQ(shorts.count(), 2);
  EXPECT_EQ(shorts.GetInt16(1), 0);
}

TEST(BatTest, StringBatUsesOffsetsIntoHeap) {
  Bat strings(ValueType::kString);
  ASSERT_TRUE(strings.AppendString("alpha").ok());
  ASSERT_TRUE(strings.AppendString("beta").ok());
  EXPECT_EQ(strings.count(), 2);
  EXPECT_EQ(strings.GetString(0), "alpha");
  EXPECT_EQ(strings.GetString(1), "beta");
  EXPECT_EQ(strings.offset_width(), 4);
  // Tail stores offsets, not characters.
  EXPECT_EQ(strings.tail_bytes(), 2 * 4);
  EXPECT_EQ(strings.GetOffset(0), kHeapHeaderBytes);
}

TEST(BatTest, NewReservesCapacity) {
  auto bat = Bat::New(ValueType::kInt16, 100);
  ASSERT_TRUE(bat.ok());
  EXPECT_EQ((*bat)->count(), 0);
}

TEST(BatTest, BatInSharedMemory) {
  SharedArena arena(8 * kSharedPageBytes);
  SlabAllocator slab(&arena);

  class SlabBufferAllocator : public BufferAllocator {
   public:
    explicit SlabBufferAllocator(SlabAllocator* slab) : slab_(slab) {}
    Result<void*> Allocate(int64_t bytes) override {
      return slab_->Allocate(bytes);
    }
    Status Free(void* ptr) override { return slab_->Free(ptr); }
    SlabAllocator* slab_;
  } alloc(&slab);

  Bat strings(ValueType::kString, &alloc);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(strings.AppendString("value" + std::to_string(i)).ok());
  }
  // Both the offset tail and the heap live inside the shared arena — the
  // property the FPGA depends on.
  EXPECT_TRUE(arena.Contains(strings.tail_data(), strings.tail_bytes()));
  EXPECT_TRUE(
      arena.Contains(strings.heap()->data(), strings.heap()->size_bytes()));
  EXPECT_EQ(strings.GetString(42), "value42");
}

TEST(TableTest, ColumnsAndValidation) {
  auto table = std::make_unique<Table>("t");
  auto ids = std::make_unique<Bat>(ValueType::kInt32);
  auto names = std::make_unique<Bat>(ValueType::kString);
  ASSERT_TRUE(ids->AppendInt32(1).ok());
  ASSERT_TRUE(names->AppendString("one").ok());
  ASSERT_TRUE(table->AddColumn("id", std::move(ids)).ok());
  ASSERT_TRUE(table->AddColumn("name", std::move(names)).ok());
  EXPECT_TRUE(table->Validate().ok());
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_NE(table->GetColumn("id"), nullptr);
  EXPECT_EQ(table->GetColumn("missing"), nullptr);
  EXPECT_EQ(table->ColumnIndex("name"), 1);
}

TEST(TableTest, CardinalityMismatchDetected) {
  auto table = std::make_unique<Table>("t");
  auto a = std::make_unique<Bat>(ValueType::kInt32);
  auto b = std::make_unique<Bat>(ValueType::kInt32);
  ASSERT_TRUE(a->AppendInt32(1).ok());
  ASSERT_TRUE(table->AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(table->AddColumn("b", std::move(b)).ok());
  EXPECT_FALSE(table->Validate().ok());
}

TEST(TableTest, DuplicateColumnRejected) {
  Table table("t");
  ASSERT_TRUE(
      table.AddColumn("x", std::make_unique<Bat>(ValueType::kInt32)).ok());
  EXPECT_EQ(
      table.AddColumn("x", std::make_unique<Bat>(ValueType::kInt32)).code(),
      StatusCode::kAlreadyExists);
}

TEST(CatalogTest, AddGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(std::make_unique<Table>("a")).ok());
  ASSERT_TRUE(catalog.AddTable(std::make_unique<Table>("b")).ok());
  EXPECT_NE(catalog.GetTable("a"), nullptr);
  EXPECT_EQ(catalog.TableNames().size(), 2u);
  ASSERT_TRUE(catalog.DropTable("a").ok());
  EXPECT_EQ(catalog.GetTable("a"), nullptr);
  EXPECT_TRUE(catalog.DropTable("a").IsNotFound());
}

}  // namespace
}  // namespace doppio
