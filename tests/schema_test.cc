#include "ldap/schema.h"

#include <gtest/gtest.h>

#include "core/integrated_schema.h"

namespace metacomm::ldap {
namespace {

Entry MinimalPerson(const char* cn) {
  Entry entry(Dn::Root().Child(Rdn("cn", cn)));
  entry.Set("objectClass", {"top", "person"});
  entry.SetOne("cn", cn);
  entry.SetOne("sn", "Doe");
  return entry;
}

TEST(SchemaTest, StandardValidatesPerson) {
  Schema schema = Schema::Standard();
  EXPECT_TRUE(schema.ValidateEntry(MinimalPerson("John Doe")).ok());
}

TEST(SchemaTest, MissingMandatoryAttribute) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.Remove("sn");
  Status status = schema.ValidateEntry(entry);
  EXPECT_EQ(status.code(), StatusCode::kSchemaViolation);
}

TEST(SchemaTest, NoObjectClass) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.Remove("objectClass");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, UnknownObjectClass) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass("starfleetOfficer");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, AttributeNotAllowedByClasses) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("mail", "jd@lucent.com");  // inetOrgPerson only.
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
  entry.AddObjectClass("organizationalPerson");
  entry.AddObjectClass("inetOrgPerson");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok());
}

TEST(SchemaTest, UndefinedAttributeType) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("frobnicator", "x");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, AliasResolves) {
  Schema schema = Schema::Standard();
  EXPECT_NE(schema.FindAttribute("commonName"), nullptr);
  EXPECT_EQ(schema.FindAttribute("commonName"),
            schema.FindAttribute("cn"));
  EXPECT_NE(schema.FindAttribute("surname"), nullptr);
}

TEST(SchemaTest, SingleValuedEnforced) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass("organizationalPerson");
  entry.AddObjectClass("inetOrgPerson");
  entry.Set("employeeNumber", {"1", "2"});
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, TelephoneSyntax) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("telephoneNumber", "+1 (908) 582-9000");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok());
  entry.SetOne("telephoneNumber", "call me");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, RdnValueMustBePresent) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("cn", "Different Name");  // RDN says cn=John Doe.
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, MixedUnrelatedStructuralClassesRejected) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass("organization");
  entry.SetOne("o", "Lucent");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, StructuralChainIsAllowed) {
  Schema schema = Schema::Standard();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass("organizationalPerson");
  entry.AddObjectClass("inetOrgPerson");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok());
}

TEST(SchemaTest, AuxiliaryClassMayNotDeclareMust) {
  // Paper §5.2: auxiliary classes cannot have mandatory attributes.
  Schema schema = Schema::Standard();
  ObjectClassDef aux;
  aux.name = "badAux";
  aux.kind = ObjectClassKind::kAuxiliary;
  aux.superior = "top";
  aux.must = {"cn"};
  EXPECT_EQ(schema.AddObjectClass(aux).code(),
            StatusCode::kSchemaViolation);
}

TEST(SchemaTest, DuplicateDefinitionsRejected) {
  Schema schema = Schema::Standard();
  AttributeTypeDef attr;
  attr.name = "cn";
  EXPECT_EQ(schema.AddAttributeType(attr).code(),
            StatusCode::kAlreadyExists);
  ObjectClassDef cls;
  cls.name = "person";
  cls.superior = "top";
  EXPECT_EQ(schema.AddObjectClass(cls).code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, UnknownSuperiorRejected) {
  Schema schema = Schema::Standard();
  ObjectClassDef cls;
  cls.name = "orphan";
  cls.superior = "noSuchClass";
  EXPECT_EQ(schema.AddObjectClass(cls).code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ConstraintListedByAliasAllowsEitherName) {
  // A class may name an attribute by an alias; the entry may carry it
  // under its canonical name or under any alias.
  Schema schema = Schema::Standard();
  ObjectClassDef mail_user;
  mail_user.name = "mailUser";
  mail_user.kind = ObjectClassKind::kAuxiliary;
  mail_user.superior = "top";
  mail_user.may = {"rfc822Mailbox"};
  ASSERT_TRUE(schema.AddObjectClass(mail_user).ok());
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("mail", "jd@lucent.com");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
  entry.AddObjectClass("mailUser");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok()) << schema.ValidateEntry(entry);
  Entry aliased = MinimalPerson("Jane Roe");
  aliased.AddObjectClass("mailUser");
  aliased.SetOne("rfc822Mailbox", "jr@lucent.com");
  EXPECT_TRUE(schema.ValidateEntry(aliased).ok())
      << schema.ValidateEntry(aliased);
}

TEST(SchemaTest, AttributeAllowedOnlyByAuxiliaryClass) {
  Schema schema = core::BuildIntegratedSchema();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("MpMailboxNumber", "9000");
  Status rejected = schema.ValidateEntry(entry);
  EXPECT_EQ(rejected.code(), StatusCode::kSchemaViolation);
  EXPECT_EQ(rejected.message(),
            "attribute 'MpMailboxNumber' not allowed by object classes of "
            "cn=John Doe");
  entry.AddObjectClass(core::kMpUserClass);
  EXPECT_TRUE(schema.ValidateEntry(entry).ok()) << schema.ValidateEntry(entry);
}

TEST(SchemaTest, SuperiorsConstraintsApplyToTheDerivedClass) {
  // inetOrgPerson alone: telephoneNumber is allowed by person's MAY two
  // superiors up, and person's MUST sn is still enforced.
  Schema schema = Schema::Standard();
  Entry entry(Dn::Root().Child(Rdn("cn", "John Doe")));
  entry.Set("objectClass", {"inetOrgPerson"});
  entry.SetOne("cn", "John Doe");
  entry.SetOne("sn", "Doe");
  entry.SetOne("telephoneNumber", "+1 908 582 4567");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok()) << schema.ValidateEntry(entry);
  entry.Remove("sn");
  Status missing = schema.ValidateEntry(entry);
  EXPECT_EQ(missing.code(), StatusCode::kSchemaViolation);
  EXPECT_EQ(missing.message(),
            "missing mandatory attribute 'sn' in cn=John Doe");
}

// ---- Integrated schema (paper §5.2) ----

TEST(IntegratedSchemaTest, PersonWithDeviceAuxClasses) {
  Schema schema = core::BuildIntegratedSchema();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass("organizationalPerson");
  entry.AddObjectClass("inetOrgPerson");
  entry.AddObjectClass(core::kDefinityUserClass);
  entry.AddObjectClass(core::kMpUserClass);
  entry.AddObjectClass(core::kMetacommObjectClass);
  entry.SetOne("DefinityExtension", "9000");
  entry.SetOne("MpMailboxNumber", "9000");
  entry.SetOne(core::kLastUpdaterAttr, "pbx1");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok())
      << schema.ValidateEntry(entry);
}

TEST(IntegratedSchemaTest, DeviceAttrWithoutAuxClassRejected) {
  Schema schema = core::BuildIntegratedSchema();
  Entry entry = MinimalPerson("John Doe");
  entry.SetOne("DefinityExtension", "9000");
  EXPECT_EQ(schema.ValidateEntry(entry).code(),
            StatusCode::kSchemaViolation);
}

TEST(IntegratedSchemaTest, AuxClassWithoutAttrsIsLegalAnomaly) {
  // §5.2: "the presence of an auxiliary objectclass only indicates
  // that a person MAY use a device" — an entry can claim definityUser
  // yet have no DefinityExtension, and the schema cannot forbid it.
  Schema schema = core::BuildIntegratedSchema();
  Entry entry = MinimalPerson("John Doe");
  entry.AddObjectClass(core::kDefinityUserClass);
  EXPECT_TRUE(schema.ValidateEntry(entry).ok());
}

TEST(IntegratedSchemaTest, ApplyObjectClassesDerivesAuxClasses) {
  Entry entry(Dn::Root().Child(Rdn("cn", "Jill Lu")));
  entry.SetOne("cn", "Jill Lu");
  entry.SetOne("sn", "Lu");
  entry.SetOne("DefinityExtension", "9001");
  entry.SetOne(core::kLastUpdaterAttr, "pbx1");
  core::ApplyObjectClasses(&entry);
  EXPECT_TRUE(entry.HasObjectClass("inetOrgPerson"));
  EXPECT_TRUE(entry.HasObjectClass(core::kDefinityUserClass));
  EXPECT_FALSE(entry.HasObjectClass(core::kMpUserClass));
  EXPECT_TRUE(entry.HasObjectClass(core::kMetacommObjectClass));

  Schema schema = core::BuildIntegratedSchema();
  EXPECT_TRUE(schema.ValidateEntry(entry).ok())
      << schema.ValidateEntry(entry);
}

TEST(IntegratedSchemaTest, ErrorEntryValidates) {
  Schema schema = core::BuildIntegratedSchema();
  Entry entry(Dn::Root().Child(Rdn("cn", "error-1")));
  entry.Set("objectClass", {"top", core::kMetacommErrorClass});
  entry.SetOne("cn", "error-1");
  entry.SetOne("errorText", "NOT_FOUND: mailbox 9000");
  entry.SetOne("errorOp", "modify");
  EXPECT_TRUE(schema.ValidateEntry(entry).ok())
      << schema.ValidateEntry(entry);
}

}  // namespace
}  // namespace metacomm::ldap
