#include "ltap/gateway.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <thread>

#include "ldap/client.h"
#include "ldap/ldif.h"
#include "ldap/server.h"

namespace metacomm::ltap {
namespace {

using ldap::Client;
using ldap::Dn;
using ldap::Entry;
using ldap::LdapServer;
using ldap::Rdn;
using ldap::Schema;
using ldap::ServerConfig;

/// Action server that records notifications and optionally fails.
class RecordingServer : public TriggerActionServer {
 public:
  Status OnUpdate(const UpdateNotification& notification) override {
    MutexLock lock(&mutex_);
    notifications.push_back(notification);
    return next_status;
  }

  void OnPersistentConnection(uint64_t session, bool open) override {
    // Fired by Quiesce under the gateway state lock: the recorder's
    // lock must rank after kGatewayState — kLeaf does.
    MutexLock lock(&mutex_);
    connections.emplace_back(session, open);
  }

  size_t Count() {
    MutexLock lock(&mutex_);
    return notifications.size();
  }

  Mutex mutex_{LockRank::kLeaf, "test.recording_server"};
  std::vector<UpdateNotification> notifications;
  std::vector<std::pair<uint64_t, bool>> connections;
  Status next_status = Status::Ok();
};

class LtapTest : public ::testing::Test {
 protected:
  LtapTest()
      : server_(Schema::Standard(),
                ServerConfig{.allow_anonymous_writes = true}),
        gateway_(&server_) {}

  void SetUp() override {
    Entry suffix(*Dn::Parse("o=Lucent"));
    suffix.AddObjectClass("top");
    suffix.AddObjectClass("organization");
    suffix.SetOne("o", "Lucent");
    ASSERT_TRUE(server_.backend().Add(suffix).ok());
  }

  void RegisterAfterTrigger(RecordingServer* action,
                            const char* base = "o=Lucent",
                            uint32_t ops = kTriggerAll) {
    TriggerSpec spec;
    spec.name = "test";
    spec.base = *Dn::Parse(base);
    spec.ops = ops;
    spec.timing = TriggerTiming::kAfter;
    spec.server = action;
    gateway_.RegisterTrigger(std::move(spec));
  }

  void RegisterBeforeTrigger(RecordingServer* action) {
    TriggerSpec spec;
    spec.name = "before";
    spec.base = *Dn::Parse("o=Lucent");
    spec.timing = TriggerTiming::kBefore;
    spec.server = action;
    gateway_.RegisterTrigger(std::move(spec));
  }

  /// Every update on `gateway` has released what it took: no entry
  /// lock on `dns`, and no update in flight, so a quiesce window opens
  /// at once.
  static void ExpectSettled(LtapGateway& gateway,
                            std::initializer_list<const char*> dns) {
    for (const char* dn : dns) {
      EXPECT_FALSE(gateway.lock_table().IsLocked(*Dn::Parse(dn))) << dn;
    }
    uint64_t session = gateway.NewSession();
    EXPECT_TRUE(gateway.Quiesce(session).ok());
    gateway.Unquiesce(session);
  }

  std::string DirectoryLdif() {
    return ldap::ToLdif(server_.backend().DumpAll());
  }

  Status AddPerson(Client& client, const std::string& cn) {
    return client.Add("cn=" + cn + ",o=Lucent",
                      {{"objectClass", "top"},
                       {"objectClass", "person"},
                       {"cn", cn},
                       {"sn", "X"}});
  }

  LdapServer server_;
  LtapGateway gateway_;
};

TEST_F(LtapTest, GatewayIsTransparentForReadsAndWrites) {
  // "LTAP works as a gateway that pretends to be an LDAP server" —
  // clients cannot tell the difference (§4.3).
  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "John Doe").ok());
  auto entry = client.Get("cn=John Doe,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("cn"), "John Doe");
  // And the write really landed on the wrapped server.
  EXPECT_TRUE(server_.backend().Exists(*Dn::Parse("cn=John Doe,o=Lucent")));
}

TEST_F(LtapTest, AfterTriggerFiresWithImages) {
  RecordingServer action;
  RegisterAfterTrigger(&action);
  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "John Doe").ok());
  ASSERT_TRUE(client.Replace("cn=John Doe,o=Lucent", "sn", "Doe").ok());

  ASSERT_EQ(action.Count(), 2u);
  const UpdateNotification& add = action.notifications[0];
  EXPECT_EQ(add.op, ldap::UpdateOp::kAdd);
  ASSERT_TRUE(add.new_entry.has_value());
  EXPECT_EQ(add.new_entry->GetFirst("cn"), "John Doe");

  const UpdateNotification& mod = action.notifications[1];
  EXPECT_EQ(mod.op, ldap::UpdateOp::kModify);
  ASSERT_TRUE(mod.old_entry.has_value());
  EXPECT_EQ(mod.old_entry->GetFirst("sn"), "X");
  ASSERT_TRUE(mod.new_entry.has_value());
  EXPECT_EQ(mod.new_entry->GetFirst("sn"), "Doe");
}

TEST_F(LtapTest, BeforeTriggerCanVeto) {
  RecordingServer veto;
  veto.next_status = Status::PermissionDenied("policy says no");
  TriggerSpec spec;
  spec.name = "veto";
  spec.base = *Dn::Parse("o=Lucent");
  spec.timing = TriggerTiming::kBefore;
  spec.server = &veto;
  gateway_.RegisterTrigger(std::move(spec));

  Client client(&gateway_);
  Status status = AddPerson(client, "John Doe");
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(server_.backend().Exists(*Dn::Parse("cn=John Doe,o=Lucent")));
  EXPECT_EQ(gateway_.stats().vetoes, 1u);
  ExpectSettled(gateway_, {"cn=John Doe,o=Lucent"});

  // Delete, Modify and ModifyRdn are vetoed the same way, and each
  // leaves the directory as it was.
  Client internal(&gateway_);
  internal.set_internal(true);
  ASSERT_TRUE(AddPerson(internal, "Jane Roe").ok());
  const std::string before = DirectoryLdif();
  EXPECT_EQ(client.Delete("cn=Jane Roe,o=Lucent").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(client.Replace("cn=Jane Roe,o=Lucent", "sn", "Y").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(client.ModifyRdn("cn=Jane Roe,o=Lucent", "cn=Jane Doe").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(DirectoryLdif(), before);
  EXPECT_EQ(gateway_.stats().vetoes, 4u);
  ExpectSettled(gateway_, {"cn=Jane Roe,o=Lucent", "cn=Jane Doe,o=Lucent"});
}

TEST_F(LtapTest, TriggerScopeAndOpMaskFilter) {
  RecordingServer action;
  RegisterAfterTrigger(&action, "ou=People,o=Lucent", kTriggerModify);

  Entry people(*Dn::Parse("ou=People,o=Lucent"));
  people.AddObjectClass("top");
  people.AddObjectClass("organizationalUnit");
  people.SetOne("ou", "People");
  ASSERT_TRUE(server_.backend().Add(people).ok());

  Client client(&gateway_);
  // Outside the base: no fire.
  ASSERT_TRUE(AddPerson(client, "Outside").ok());
  // Inside the base but an Add: masked out.
  ASSERT_TRUE(client
                  .Add("cn=In,ou=People,o=Lucent",
                       {{"objectClass", "top"},
                        {"objectClass", "person"},
                        {"cn", "In"},
                        {"sn", "X"}})
                  .ok());
  EXPECT_EQ(action.Count(), 0u);
  // Modify inside the base: fires.
  ASSERT_TRUE(client.Replace("cn=In,ou=People,o=Lucent", "sn", "Y").ok());
  EXPECT_EQ(action.Count(), 1u);
}

TEST_F(LtapTest, TriggerEntryFilter) {
  RecordingServer action;
  TriggerSpec spec;
  spec.name = "filtered";
  spec.base = *Dn::Parse("o=Lucent");
  spec.filter = *ldap::Filter::Parse("(sn=Doe)");
  spec.timing = TriggerTiming::kAfter;
  spec.server = &action;
  gateway_.RegisterTrigger(std::move(spec));

  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "Nope").ok());  // sn=X: no fire.
  EXPECT_EQ(action.Count(), 0u);
  ASSERT_TRUE(client
                  .Add("cn=Yes,o=Lucent", {{"objectClass", "top"},
                                           {"objectClass", "person"},
                                           {"cn", "Yes"},
                                           {"sn", "Doe"}})
                  .ok());
  EXPECT_EQ(action.Count(), 1u);
}

TEST_F(LtapTest, InternalOpsBypassTriggers) {
  RecordingServer action;
  RegisterAfterTrigger(&action);
  Client client(&gateway_);
  client.set_internal(true);
  ASSERT_TRUE(AddPerson(client, "John Doe").ok());
  EXPECT_EQ(action.Count(), 0u);
  EXPECT_EQ(gateway_.stats().internal_ops, 1u);
}

TEST_F(LtapTest, EntryLockBlocksConflictingUpdate) {
  uint64_t holder = gateway_.NewSession();
  Dn dn = *Dn::Parse("cn=John Doe,o=Lucent");
  ASSERT_TRUE(gateway_.LockEntry(dn, holder).ok());

  // Another session's update times out on the lock.
  GatewayConfig config;
  config.lock_timeout_micros = 20'000;
  LtapGateway fast_gateway(&server_, config);
  Client client(&fast_gateway);
  // Share the lock table? No — locks are per-gateway, so test within
  // one gateway: use a thread against gateway_ with a short-lived
  // client while we hold the lock.
  Client blocked(&gateway_);
  blocked.set_session_id(gateway_.NewSession());
  std::atomic<bool> finished{false};
  std::thread writer([&] {
    Status status = AddPerson(blocked, "John Doe");
    finished.store(true);
    EXPECT_TRUE(status.ok()) << status;  // Succeeds once lock released.
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(finished.load());  // Still waiting on the entry lock.
  gateway_.UnlockEntry(dn, holder);
  writer.join();
  EXPECT_TRUE(finished.load());
  EXPECT_GT(gateway_.lock_table().contended_acquisitions(), 0u);
}

TEST_F(LtapTest, LockIsReentrantForOwner) {
  uint64_t session = gateway_.NewSession();
  Dn dn = *Dn::Parse("cn=X,o=Lucent");
  ASSERT_TRUE(gateway_.LockEntry(dn, session).ok());
  ASSERT_TRUE(gateway_.LockEntry(dn, session).ok());
  gateway_.UnlockEntry(dn, session);
  EXPECT_TRUE(gateway_.lock_table().IsLocked(dn));
  gateway_.UnlockEntry(dn, session);
  EXPECT_FALSE(gateway_.lock_table().IsLocked(dn));
}

TEST_F(LtapTest, QuiesceBlocksOtherSessionsUpdatesNotReads) {
  RecordingServer action;
  RegisterAfterTrigger(&action);
  Client setup(&gateway_);
  ASSERT_TRUE(AddPerson(setup, "John Doe").ok());

  uint64_t sync_session = gateway_.NewSession();
  ASSERT_TRUE(gateway_.Quiesce(sync_session).ok());
  EXPECT_TRUE(gateway_.IsQuiesced());

  // Persistent-connection signal reached the action server (§5.1).
  ASSERT_FALSE(action.connections.empty());
  EXPECT_EQ(action.connections.back(),
            (std::pair<uint64_t, bool>{sync_session, true}));

  // Reads pass through during the quiesce window.
  Client reader(&gateway_);
  EXPECT_TRUE(reader.Get("cn=John Doe,o=Lucent").ok());

  // Updates from the quiescing session itself proceed.
  Client sync_client(&gateway_);
  sync_client.set_session_id(sync_session);
  EXPECT_TRUE(sync_client.Replace("cn=John Doe,o=Lucent", "sn", "Q").ok());

  // Updates from other sessions wait; with a second thread we can see
  // them complete after Unquiesce.
  Client blocked(&gateway_);
  blocked.set_session_id(gateway_.NewSession());
  std::atomic<bool> finished{false};
  std::thread writer([&] {
    Status status = blocked.Replace("cn=John Doe,o=Lucent", "sn", "W");
    finished.store(true);
    EXPECT_TRUE(status.ok()) << status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(finished.load());
  gateway_.Unquiesce(sync_session);
  writer.join();
  EXPECT_FALSE(gateway_.IsQuiesced());
  EXPECT_EQ(action.connections.back(),
            (std::pair<uint64_t, bool>{sync_session, false}));
}

TEST_F(LtapTest, SecondQuiesceRejected) {
  uint64_t first = gateway_.NewSession();
  uint64_t second = gateway_.NewSession();
  ASSERT_TRUE(gateway_.Quiesce(first).ok());
  EXPECT_EQ(gateway_.Quiesce(second).code(), StatusCode::kConflict);
  gateway_.Unquiesce(first);
  EXPECT_TRUE(gateway_.Quiesce(second).ok());
  gateway_.Unquiesce(second);
}

TEST_F(LtapTest, TriggersDisabledAblation) {
  GatewayConfig config;
  config.triggers_enabled = false;
  LtapGateway bare(&server_, config);
  RecordingServer action;
  TriggerSpec spec;
  spec.name = "ignored";
  spec.base = *Dn::Parse("o=Lucent");
  spec.server = &action;
  bare.RegisterTrigger(std::move(spec));
  Client client(&bare);
  ASSERT_TRUE(AddPerson(client, "Quiet").ok());
  EXPECT_EQ(action.Count(), 0u);
}

TEST_F(LtapTest, StatsCountReadsAndUpdates) {
  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "John Doe").ok());
  ASSERT_TRUE(client.Get("cn=John Doe,o=Lucent").ok());
  ASSERT_TRUE(client.Get("cn=John Doe,o=Lucent").ok());
  LtapGateway::Stats stats = gateway_.stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.reads, 2u);
}

TEST_F(LtapTest, DeleteOnMissingEntryReportsNotFound) {
  // Modify and ModifyRdn take the same path: NotFound before any
  // trigger fires, and nothing left held.
  RecordingServer before;
  RegisterBeforeTrigger(&before);
  RecordingServer after;
  RegisterAfterTrigger(&after);
  Client client(&gateway_);
  EXPECT_EQ(client.Delete("cn=Ghost,o=Lucent").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Replace("cn=Ghost,o=Lucent", "sn", "Y").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.ModifyRdn("cn=Ghost,o=Lucent", "cn=Spirit").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(before.Count(), 0u);
  EXPECT_EQ(after.Count(), 0u);
  ExpectSettled(gateway_, {"cn=Ghost,o=Lucent", "cn=Spirit,o=Lucent"});
}

TEST_F(LtapTest, EveryEarlyExitReleasesWhatItTook) {
  GatewayConfig config;
  config.lock_timeout_micros = 20'000;
  config.quiesce_wait_micros = 20'000;
  LtapGateway gateway(&server_, config);
  Client client(&gateway);
  client.set_session_id(gateway.NewSession());
  ASSERT_TRUE(AddPerson(client, "B").ok());
  ASSERT_TRUE(AddPerson(client, "C").ok());

  // The backend refuses the write.
  EXPECT_EQ(AddPerson(client, "B").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(client.ModifyRdn("cn=B,o=Lucent", "cn=C").code(),
            StatusCode::kAlreadyExists);
  ExpectSettled(gateway, {"cn=B,o=Lucent", "cn=C,o=Lucent"});

  // A lock wait times out, on a rename's second name after it took
  // its first.
  uint64_t holder = gateway.NewSession();
  ASSERT_TRUE(gateway.LockEntry(*Dn::Parse("cn=Z,o=Lucent"), holder).ok());
  EXPECT_EQ(client.Replace("cn=Z,o=Lucent", "sn", "Y").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client.ModifyRdn("cn=B,o=Lucent", "cn=Z").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(gateway.lock_table().IsLocked(*Dn::Parse("cn=B,o=Lucent")));
  gateway.UnlockEntry(*Dn::Parse("cn=Z,o=Lucent"), holder);
  ExpectSettled(gateway, {"cn=B,o=Lucent", "cn=Z,o=Lucent"});

  // A quiesce window outlasts the wait for it.
  uint64_t sync_session = gateway.NewSession();
  ASSERT_TRUE(gateway.Quiesce(sync_session).ok());
  EXPECT_EQ(client.Replace("cn=B,o=Lucent", "sn", "Y").code(),
            StatusCode::kConflict);
  gateway.Unquiesce(sync_session);
  ExpectSettled(gateway, {"cn=B,o=Lucent"});
}

TEST_F(LtapTest, GatewaysStack) {
  // Because LTAP implements the same service interface it wraps,
  // gateways compose: an outer gateway (say, an auditing layer) can
  // front the MetaComm gateway. Triggers fire at each layer.
  RecordingServer inner_action;
  RegisterAfterTrigger(&inner_action);
  LtapGateway outer(&gateway_);
  RecordingServer outer_action;
  TriggerSpec spec;
  spec.name = "outer";
  spec.base = *Dn::Parse("o=Lucent");
  spec.timing = TriggerTiming::kAfter;
  spec.server = &outer_action;
  outer.RegisterTrigger(std::move(spec));

  Client client(&outer);
  ASSERT_TRUE(AddPerson(client, "Stacked").ok());
  EXPECT_EQ(outer_action.Count(), 1u);
  EXPECT_EQ(inner_action.Count(), 1u);
  EXPECT_TRUE(server_.backend().Exists(*Dn::Parse("cn=Stacked,o=Lucent")));
}

TEST_F(LtapTest, ModifyRdnLocksBothNames) {
  RecordingServer action;
  RegisterAfterTrigger(&action);
  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "Old Name").ok());
  ASSERT_TRUE(client.ModifyRdn("cn=Old Name,o=Lucent", "cn=New Name").ok());
  // Rename fired one notification carrying both DNs and both images.
  ASSERT_EQ(action.Count(), 2u);  // Add + ModifyRdn.
  const UpdateNotification& rename = action.notifications[1];
  EXPECT_EQ(rename.op, ldap::UpdateOp::kModifyRdn);
  EXPECT_EQ(rename.dn.ToString(), "cn=Old Name,o=Lucent");
  ASSERT_TRUE(rename.new_dn.has_value());
  EXPECT_EQ(rename.new_dn->ToString(), "cn=New Name,o=Lucent");
  ASSERT_TRUE(rename.old_entry.has_value());
  ASSERT_TRUE(rename.new_entry.has_value());
  EXPECT_EQ(rename.new_entry->GetFirst("cn"), "New Name");
  // Locks fully released afterwards.
  EXPECT_FALSE(gateway_.lock_table().IsLocked(
      *Dn::Parse("cn=Old Name,o=Lucent")));
  EXPECT_FALSE(gateway_.lock_table().IsLocked(
      *Dn::Parse("cn=New Name,o=Lucent")));
}

TEST_F(LtapTest, RenameTakesBothNamesInNormalizedDnOrder) {
  // The Update Manager locks a DDU's names in normalized-DN order. A
  // rename B -> A that held B while it waited for A could stall
  // against an update that holds A and waits for B until the lock
  // timeout; in DN order the rename waits for A holding nothing.
  Client client(&gateway_);
  ASSERT_TRUE(AddPerson(client, "B").ok());
  Dn a = *Dn::Parse("cn=A,o=Lucent");
  Dn b = *Dn::Parse("cn=B,o=Lucent");
  uint64_t holder = gateway_.NewSession();
  ASSERT_TRUE(gateway_.LockEntry(a, holder).ok());

  uint64_t contended = gateway_.lock_table().contended_acquisitions();
  Client renamer(&gateway_);
  renamer.set_session_id(gateway_.NewSession());
  Status status;
  std::thread rename(
      [&] { status = renamer.ModifyRdn("cn=B,o=Lucent", "cn=A"); });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gateway_.lock_table().contended_acquisitions() == contended &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GT(gateway_.lock_table().contended_acquisitions(), contended);
  EXPECT_FALSE(gateway_.lock_table().IsLocked(b));
  gateway_.UnlockEntry(a, holder);
  rename.join();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(server_.backend().Exists(a));
  ExpectSettled(gateway_, {"cn=A,o=Lucent", "cn=B,o=Lucent"});
}

TEST_F(LtapTest, AfterTriggerErrorReportedButWriteStands) {
  RecordingServer action;
  action.next_status = Status::Internal("action server hiccup");
  RegisterAfterTrigger(&action);
  Client client(&gateway_);
  Status status = AddPerson(client, "Kept");
  // The client learns of the failure...
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // ...but the directory write already happened (after-trigger).
  EXPECT_TRUE(server_.backend().Exists(*Dn::Parse("cn=Kept,o=Lucent")));
  ExpectSettled(gateway_, {"cn=Kept,o=Lucent"});
}

}  // namespace
}  // namespace metacomm::ltap
