//===- serve/Telemetry.cpp ------------------------------------*- C++ -*-===//

#include "serve/Telemetry.h"

#include <algorithm>

using namespace gcsafe;
using namespace gcsafe::serve;

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

std::string promNum(const support::Json &V) {
  return V.isInt() ? std::to_string(V.asInt())
                   : std::to_string(V.asDouble());
}

void promHistogram(std::string &Out, const std::string &Name,
                   const support::Json &H) {
  Out += "# TYPE " + Name + " histogram\n";
  uint64_t Cum = 0;
  if (const support::Json *Buckets = H.get("buckets")) {
    for (size_t I = 0; I < Buckets->size(); ++I) {
      const support::Json &B = Buckets->at(I);
      const support::Json *Le = B.get("le_ns");
      const support::Json *C = B.get("count");
      if (!Le || !C)
        continue;
      Cum += uint64_t(C->asInt());
      std::string Label =
          Le->isString() ? "+Inf" : std::to_string(Le->asInt());
      Out += Name + "_bucket{le=\"" + Label + "\"} " +
             std::to_string(Cum) + "\n";
    }
  }
  if (const support::Json *Sum = H.get("sum_ns"))
    Out += Name + "_sum " + promNum(*Sum) + "\n";
  if (const support::Json *Count = H.get("count"))
    Out += Name + "_count " + promNum(*Count) + "\n";
}

} // namespace

std::string gcsafe::serve::metricsToPrometheus(const support::Json &M) {
  std::string Out;
  auto Scalar = [&Out, &M](const char *Key, const char *Metric,
                           const char *Type) {
    if (const support::Json *V = M.get(Key)) {
      Out += std::string("# TYPE ") + Metric + " " + Type + "\n";
      Out += std::string(Metric) + " " + promNum(*V) + "\n";
    }
  };
  Scalar("uptime_ns", "gcsafe_serve_uptime_ns", "counter");
  Scalar("requests", "gcsafe_serve_requests_total", "counter");
  Scalar("rate_rps", "gcsafe_serve_request_rate", "gauge");
  if (const support::Json *Q = M.get("queue")) {
    if (const support::Json *D = Q->get("depth")) {
      Out += "# TYPE gcsafe_serve_queue_depth gauge\n";
      Out += "gcsafe_serve_queue_depth " + promNum(*D) + "\n";
    }
    if (const support::Json *P = Q->get("peak")) {
      Out += "# TYPE gcsafe_serve_queue_peak counter\n";
      Out += "gcsafe_serve_queue_peak " + promNum(*P) + "\n";
    }
    if (const support::Json *S = Q->get("shed")) {
      Out += "# TYPE gcsafe_serve_queue_shed_total counter\n";
      Out += "gcsafe_serve_queue_shed_total " + promNum(*S) + "\n";
    }
  }
  if (const support::Json *Stages = M.get("stages"))
    for (const auto &KV : Stages->members()) {
      std::string Name = "gcsafe_serve_" + KV.first + "_ns";
      std::replace(Name.begin(), Name.end(), '.', '_');
      promHistogram(Out, Name, KV.second);
    }
  // The durable-store block (docs/OBSERVABILITY.md "serve.store.*"):
  // lifetime counters plus the degraded 0/1 gauge an alert should watch.
  if (const support::Json *St = M.get("store")) {
    auto StoreCounter = [&Out, St](const char *Key, const char *Metric) {
      if (const support::Json *V = St->get(Key)) {
        Out += std::string("# TYPE ") + Metric + " counter\n";
        Out += std::string(Metric) + " " + promNum(*V) + "\n";
      }
    };
    StoreCounter("hits", "gcsafe_serve_store_hits_total");
    StoreCounter("misses", "gcsafe_serve_store_misses_total");
    StoreCounter("writes", "gcsafe_serve_store_writes_total");
    StoreCounter("scrubbed", "gcsafe_serve_store_scrubbed_total");
    StoreCounter("quarantined", "gcsafe_serve_store_quarantined_total");
    StoreCounter("io_errors", "gcsafe_serve_store_io_errors_total");
    if (const support::Json *D = St->get("degraded")) {
      Out += "# TYPE gcsafe_serve_store_degraded gauge\n";
      Out += "gcsafe_serve_store_degraded " + promNum(*D) + "\n";
    }
  }
  return Out;
}
