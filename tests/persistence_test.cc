#include "storage/ldif_file.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/metacomm.h"

namespace metacomm::ldap {
namespace {

Entry Person(const char* dn_text, const char* cn) {
  Entry entry(*Dn::Parse(dn_text));
  entry.AddObjectClass("top");
  entry.AddObjectClass("person");
  entry.SetOne("cn", cn);
  entry.SetOne("sn", "X");
  return entry;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Entry suffix(*Dn::Parse("o=Lucent"));
    suffix.AddObjectClass("top");
    suffix.SetOne("o", "Lucent");
    ASSERT_TRUE(backend_.Add(suffix).ok());
    ASSERT_TRUE(backend_.Add(Person("cn=A,o=Lucent", "A")).ok());
    ASSERT_TRUE(backend_.Add(Person("cn=B,o=Lucent", "B")).ok());
    path_ = std::string(::testing::TempDir()) + "/metacomm_dit_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".ldif";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Backend backend_;
  std::string path_;
};

TEST_F(PersistenceTest, ExportImportRoundTrip) {
  std::string text = storage::ExportLdif(backend_);
  Backend fresh;
  auto loaded = storage::ImportLdif(&fresh, text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->loaded, 3u);
  EXPECT_EQ(loaded->skipped_duplicates, 0u);
  EXPECT_EQ(loaded->rejected, 0u);
  EXPECT_EQ(fresh.Size(), backend_.Size());
  auto entry = fresh.Get(*Dn::Parse("cn=A,o=Lucent"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("cn"), "A");
}

TEST_F(PersistenceTest, FileRoundTrip) {
  ASSERT_TRUE(storage::SaveToLdifFile(backend_, path_).ok());
  Backend fresh;
  auto loaded = storage::LoadFromLdifFile(&fresh, path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->loaded, 3u);
  EXPECT_TRUE(fresh.Exists(*Dn::Parse("cn=B,o=Lucent")));
}

TEST_F(PersistenceTest, ImportIsIdempotent) {
  std::string text = storage::ExportLdif(backend_);
  auto reloaded = storage::ImportLdif(&backend_, text);
  ASSERT_TRUE(reloaded.ok());
  // Everything already present — and visibly so, instead of an
  // indistinguishable "0 loaded".
  EXPECT_EQ(reloaded->loaded, 0u);
  EXPECT_EQ(reloaded->skipped_duplicates, 3u);
  EXPECT_EQ(reloaded->rejected, 0u);
  EXPECT_EQ(backend_.Size(), 3u);
}

TEST_F(PersistenceTest, ChangeRecordsCountedAsRejected) {
  // A changetype record no longer poisons the whole file: the content
  // records around it load, and the report says one was passed over.
  Backend fresh;
  auto loaded = storage::ImportLdif(
      &fresh,
      "dn: o=Lucent\nobjectClass: top\no: Lucent\n\n"
      "dn: cn=X,o=Lucent\nchangetype: delete\n\n"
      "dn: cn=A,o=Lucent\nobjectClass: top\nobjectClass: person\n"
      "cn: A\nsn: X\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->loaded, 2u);
  EXPECT_EQ(loaded->rejected, 1u);
  EXPECT_TRUE(fresh.Exists(*Dn::Parse("cn=A,o=Lucent")));
}

TEST_F(PersistenceTest, BackendRejectionsCounted) {
  // An orphan (parent never loads) is rejected and counted; the rest
  // of the file still loads.
  Backend fresh;
  auto loaded = storage::ImportLdif(
      &fresh,
      "dn: o=Lucent\nobjectClass: top\no: Lucent\n\n"
      "dn: cn=Deep,ou=Nowhere,o=Lucent\nobjectClass: top\n"
      "objectClass: person\ncn: Deep\nsn: X\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->loaded, 1u);
  EXPECT_EQ(loaded->rejected, 1u);
}

TEST_F(PersistenceTest, MissingFileReported) {
  Backend fresh;
  EXPECT_EQ(storage::LoadFromLdifFile(&fresh, "/nonexistent/dir/x.ldif")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(PersistenceTest, SaveToUnwritableDirectoryIsTypedError) {
  // Write failures surface as a typed Status instead of silently
  // dropping the dump.
  Status saved =
      storage::SaveToLdifFile(backend_, "/nonexistent/dir/x.ldif");
  EXPECT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable);
}

TEST(PersistenceRestartTest, UmRestartReloadsAndResynchronizes) {
  // The §4.4 crash story end-to-end: run a deployment, lose the
  // process, restart from the LDIF snapshot, resynchronize with the
  // devices that kept changing meanwhile.
  std::string path = std::string(::testing::TempDir()) +
                     "/metacomm_restart.ldif";
  devices::DefinityPbx pbx(devices::PbxConfig{.name = "pbx1"});

  {
    auto system = core::MetaCommSystem::Create(core::SystemConfig{});
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)
                    ->AddPerson("John Doe",
                                {{"telephoneNumber", "+1 908 582 4567"}})
                    .ok());
    ASSERT_TRUE(
        storage::SaveToLdifFile((*system)->server().backend(), path).ok());
    // "Process dies" — the system goes away; mirror its PBX state
    // into our standalone device (which, being hardware, survives).
    auto station = (*system)->pbx("pbx1")->GetRecord("4567");
    ASSERT_TRUE(station.ok());
    ASSERT_TRUE(pbx.AddRecord(*station).ok());
  }

  // The device keeps moving while MetaComm is down.
  ASSERT_TRUE(pbx.ExecuteCommand("change station 4567 Room DOWN-1").ok());

  // Restart: fresh system, reload the snapshot, resync.
  auto restarted = core::MetaCommSystem::Create(core::SystemConfig{});
  ASSERT_TRUE(restarted.ok());
  auto loaded =
      storage::LoadFromLdifFile(&(*restarted)->server().backend(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GE(loaded->loaded, 1u);

  // Replay the surviving device's state into the restarted system's
  // PBX (simulating that it is the same physical switch).
  auto dump = pbx.DumpAll();
  ASSERT_TRUE(dump.ok());
  (*restarted)->pbx("pbx1")->faults().set_drop_notifications(true);
  for (const auto& record : *dump) {
    ASSERT_TRUE((*restarted)->pbx("pbx1")->AddRecord(record).ok());
  }
  (*restarted)->pbx("pbx1")->faults().set_drop_notifications(false);

  ASSERT_TRUE((*restarted)->update_manager().Synchronize("pbx1").ok());
  ldap::Client client = (*restarted)->NewClient();
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->GetFirst("roomNumber"), "DOWN-1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace metacomm::ldap
