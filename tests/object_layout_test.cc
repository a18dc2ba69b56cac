#include "src/objects/object_layout.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/objects/schema.h"

namespace treebench {
namespace {

using object_layout::AddIndexIdAt;
using object_layout::Encode;
using object_layout::EncodeForward;
using object_layout::GrowIndexHeader;
using object_layout::ObjectView;
using object_layout::RemoveIndexIdAt;
using object_layout::StoredField;

class ObjectLayoutTest : public ::testing::Test {
 protected:
  ObjectLayoutTest() {
    patient_id_ = schema_
                      .AddClass("Patient",
                                {{"name", AttrType::kString},
                                 {"mrn", AttrType::kInt32},
                                 {"age", AttrType::kInt32},
                                 {"sex", AttrType::kChar},
                                 {"primary_care_provider", AttrType::kRef},
                                 {"friends", AttrType::kRefSet}})
                      .value();
  }

  std::vector<uint8_t> EncodePatient(StringStorage mode,
                                     uint8_t capacity = 0,
                                     std::vector<uint32_t> ids = {}) {
    const ClassDef& cls = schema_.GetClass(patient_id_);
    std::vector<StoredField> fields;
    if (mode == StringStorage::kInline) {
      fields.emplace_back(std::string("daisy duck"));
    } else {
      fields.emplace_back(Rid(1, 2, 3));  // string record rid
    }
    fields.emplace_back(int32_t{12345});
    fields.emplace_back(int32_t{33});
    fields.emplace_back('f');
    fields.emplace_back(Rid(0, 77, 4));
    fields.emplace_back(Rid(2, 5, 1));  // set record rid
    return Encode(cls, mode, capacity, ids, fields);
  }

  Schema schema_;
  uint16_t patient_id_;
};

TEST_F(ObjectLayoutTest, RoundTripInlineStrings) {
  auto rec = EncodePatient(StringStorage::kInline);
  const ClassDef& cls = schema_.GetClass(patient_id_);
  ObjectView view(rec, &cls, StringStorage::kInline);
  EXPECT_EQ(view.class_id(), patient_id_);
  EXPECT_FALSE(view.IsForward());
  EXPECT_EQ(view.index_capacity(), 0);
  EXPECT_EQ(view.index_count(), 0);
  EXPECT_EQ(view.GetInlineString(0), "daisy duck");
  EXPECT_EQ(view.GetInt32(1), 12345);
  EXPECT_EQ(view.GetInt32(2), 33);
  EXPECT_EQ(view.GetChar(3), 'f');
  EXPECT_EQ(view.GetRef(4), Rid(0, 77, 4));
  EXPECT_EQ(view.GetSetRid(5), Rid(2, 5, 1));
}

TEST_F(ObjectLayoutTest, RoundTripSeparateStrings) {
  auto rec = EncodePatient(StringStorage::kSeparateRecord);
  const ClassDef& cls = schema_.GetClass(patient_id_);
  ObjectView view(rec, &cls, StringStorage::kSeparateRecord);
  EXPECT_EQ(view.GetStringRid(0), Rid(1, 2, 3));
  EXPECT_EQ(view.GetInt32(1), 12345);
}

TEST_F(ObjectLayoutTest, SeparateModeIsFixedWidth) {
  // Strings become 8-byte rids: record size must not depend on content.
  auto rec = EncodePatient(StringStorage::kSeparateRecord);
  size_t expect = object_layout::HeaderSize(0) + 8 + 4 + 4 + 1 + 8 + 8;
  EXPECT_EQ(rec.size(), expect);
}

TEST_F(ObjectLayoutTest, IndexHeaderCapacityReservesSpace) {
  auto rec0 = EncodePatient(StringStorage::kInline, 0);
  auto rec8 = EncodePatient(StringStorage::kInline, 8);
  EXPECT_EQ(rec8.size(), rec0.size() + 8);  // 8 slots x 1 byte
}

TEST_F(ObjectLayoutTest, AddIndexIdInPlaceUntilFull) {
  auto rec = EncodePatient(StringStorage::kInline, 2);
  EXPECT_TRUE(AddIndexIdAt(rec, 100).ok());
  EXPECT_TRUE(AddIndexIdAt(rec, 200).ok());
  // Duplicate add is a no-op success.
  EXPECT_TRUE(AddIndexIdAt(rec, 100).ok());
  // Third distinct id does not fit.
  EXPECT_TRUE(AddIndexIdAt(rec, 300).IsResourceExhausted());

  const ClassDef& cls = schema_.GetClass(patient_id_);
  ObjectView view(rec, &cls, StringStorage::kInline);
  EXPECT_EQ(view.index_count(), 2);
  EXPECT_EQ(view.index_id(0), 100u);
  EXPECT_EQ(view.index_id(1), 200u);
  // Attribute decoding unaffected by header contents.
  EXPECT_EQ(view.GetInt32(1), 12345);
}

TEST_F(ObjectLayoutTest, RemoveIndexIdShiftsRemainder) {
  auto rec = EncodePatient(StringStorage::kInline, 4);
  AddIndexIdAt(rec, 1).ok();
  AddIndexIdAt(rec, 2).ok();
  AddIndexIdAt(rec, 3).ok();
  RemoveIndexIdAt(rec, 2);
  const ClassDef& cls = schema_.GetClass(patient_id_);
  ObjectView view(rec, &cls, StringStorage::kInline);
  ASSERT_EQ(view.index_count(), 2);
  EXPECT_EQ(view.index_id(0), 1u);
  EXPECT_EQ(view.index_id(1), 3u);
  RemoveIndexIdAt(rec, 99);  // absent: no-op
  EXPECT_EQ(view.index_count(), 2);
}

TEST_F(ObjectLayoutTest, GrowIndexHeaderKeepsIdsAndBodyAndAddsFreeSlots) {
  auto rec = EncodePatient(StringStorage::kInline, 2);
  ASSERT_TRUE(AddIndexIdAt(rec, 4).ok());
  ASSERT_TRUE(AddIndexIdAt(rec, 9).ok());
  ASSERT_TRUE(AddIndexIdAt(rec, 11).IsResourceExhausted());

  std::vector<uint8_t> grown = GrowIndexHeader(rec, 10);
  EXPECT_EQ(grown.size(), rec.size() + 8);
  const ClassDef& cls = schema_.GetClass(patient_id_);
  ObjectView view(grown, &cls, StringStorage::kInline);
  EXPECT_EQ(view.class_id(), patient_id_);
  EXPECT_FALSE(view.IsForward());
  EXPECT_EQ(view.index_capacity(), 10);
  ASSERT_EQ(view.index_count(), 2);
  EXPECT_EQ(view.index_id(0), 4u);
  EXPECT_EQ(view.index_id(1), 9u);
  EXPECT_EQ(view.GetInlineString(0), "daisy duck");
  EXPECT_EQ(view.GetInt32(1), 12345);
  EXPECT_EQ(view.GetChar(3), 'f');
  EXPECT_EQ(view.GetSetRid(5), Rid(2, 5, 1));
  // The grown slots are free: the id that did not fit now does.
  EXPECT_TRUE(AddIndexIdAt(grown, 11).ok());
  EXPECT_EQ(view.index_count(), 3);
  EXPECT_EQ(view.index_id(2), 11u);
  // The body sits after the new header, byte for byte.
  EXPECT_TRUE(std::equal(rec.begin() + 7, rec.end(), grown.begin() + 15));
}

TEST_F(ObjectLayoutTest, ForwardStub) {
  auto stub = EncodeForward(patient_id_, Rid(3, 9, 2));
  ObjectView view(stub, nullptr, StringStorage::kInline);
  EXPECT_TRUE(view.IsForward());
  EXPECT_EQ(view.class_id(), patient_id_);
  EXPECT_EQ(view.ForwardTarget(), Rid(3, 9, 2));
  EXPECT_EQ(stub.size(), 13u);
}

TEST(SchemaTest, AddAndFindClasses) {
  Schema schema;
  uint16_t a = schema.AddClass("A", {{"x", AttrType::kInt32}}).value();
  uint16_t b = schema.AddClass("B", {}).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(schema.GetClass(a).name(), "A");
  EXPECT_EQ((*schema.FindClass("B"))->id(), b);
  EXPECT_TRUE(schema.FindClass("C").status().IsNotFound());
  EXPECT_TRUE(schema.AddClass("A", {}).status().code() ==
              StatusCode::kAlreadyExists);
}

TEST(SchemaTest, AttrIndexLookup) {
  Schema schema;
  uint16_t id = schema
                    .AddClass("P", {{"name", AttrType::kString},
                                    {"upin", AttrType::kInt32}})
                    .value();
  const ClassDef& cls = schema.GetClass(id);
  EXPECT_EQ(*cls.AttrIndex("upin"), 1u);
  EXPECT_TRUE(cls.AttrIndex("nope").status().IsNotFound());
}

}  // namespace
}  // namespace treebench
