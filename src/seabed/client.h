// The Seabed decryption module (paper Section 4.6).
//
// Takes the server's encrypted response, undoes group-by inflation, removes
// the ASHE pads, renders DET tokens back to plaintext values, and applies the
// client-side post-processing the translator scheduled (AVG division,
// variance/stddev formulas, MIN/MAX cell decryption).
//
// The pads come from one streaming pass over each ID-list section
// (EncryptedResponse::id_sections): every run is decoded once into a fixed
// chunk buffer, the chunk's endpoints go through the PRF of each ASHE sum
// sharing that list as one batch, and count * (F(hi) - F(lo-1)) is added to
// a flat per-(group, aggregate) pad array. Nothing is allocated per group or
// per run; runs from different sections telescope without normalization.
//
// All client work is wall-clock measured and reported in
// QueryStats::client_seconds; the modeled server→client transfer goes to
// QueryStats::network_seconds, and the Section 6.6 "AES operations required
// for decryption" statistic to QueryStats::prf_calls. Stats are per-call, so
// one Client may decrypt concurrent responses (Session::ExecuteBatch).
#ifndef SEABED_SRC_SEABED_CLIENT_H_
#define SEABED_SRC_SEABED_CLIENT_H_

#include "src/query/query.h"
#include "src/seabed/encryptor.h"
#include "src/seabed/server.h"
#include "src/seabed/translator.h"

namespace seabed {

class Client {
 public:
  Client(const EncryptedDatabase& db, const ClientKeys& keys) : db_(&db), keys_(&keys) {}

  // Decrypts `response` for the translated query `tq`. `right_db` supplies
  // keys/dictionaries for joined-table aggregates and group columns (nullptr
  // for non-join queries). `stats`, when non-null, receives the latency
  // breakdown and PRF-call count.
  ResultSet Decrypt(const EncryptedResponse& response, const TranslatedQuery& tq,
                    const Cluster& cluster, const EncryptedDatabase* right_db,
                    QueryStats* stats) const;

 private:
  const EncryptedDatabase* db_;
  const ClientKeys* keys_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_CLIENT_H_
