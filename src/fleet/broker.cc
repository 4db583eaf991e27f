#include "fleet/broker.h"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "eval/sweep.h"

namespace groupform::fleet {

using common::Status;
using common::StatusOr;
using common::StrFormat;

BrokerSession::BrokerSession(BrokerConfig config, Transport& transport)
    : config_(config),
      transport_(transport),
      ring_(transport.num_workers(), config.virtual_nodes) {}

StatusOr<std::string> BrokerSession::CallWithRetry(int worker,
                                                   const std::string& doc) {
  auto result = transport_.Call(worker, doc);
  for (int attempt = 0; !result.ok() && attempt < config_.retries;
       ++attempt) {
    // The failed connection is already torn down; the backoff gives a
    // restarting worker a beat before the fresh-connect attempt.
    transport_.Reset(worker);
    if (config_.backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.backoff_ms));
    }
    result = transport_.Call(worker, doc);
  }
  return result;
}

std::string BrokerSession::RouteOne(const serve::Request& request,
                                    const std::string& doc) {
  const int worker = ring_.WorkerFor(request.instance.CanonicalKey());
  auto response_or = CallWithRetry(worker, doc);
  if (response_or.ok()) return *std::move(response_or);
  // Degrade, never hang: the dead worker costs this request (and its
  // instance-neighbours) an ERR(UNAVAILABLE); requests routed elsewhere
  // proceed normally.
  serve::Response response;
  response.id = request.id;
  response.state = eval::SweepCellState::kErr;
  response.status = Status::Unavailable(
      StrFormat("worker %d unreachable after %d retries: %s", worker,
                config_.retries,
                response_or.status().message().c_str()));
  return serve::RenderResponse(response);
}

std::string BrokerSession::ExecuteBatch(const serve::BatchRequest& batch,
                                        const std::string& line) {
  const std::size_t n = batch.requests.size();
  std::vector<std::string> docs(n);
  // Element documents come verbatim off the wire when the envelope is
  // canonical (our client renders canonically, so this is the hot path);
  // a foreign rendering falls back to one re-render per element.
  std::vector<std::string> element_docs;
  if (auto raw_or = serve::SplitBatchRequestDocs(line);
      raw_or.ok() && raw_or->size() == n) {
    element_docs = *std::move(raw_or);
  } else {
    element_docs.reserve(n);
    for (const serve::Request& request : batch.requests) {
      element_docs.push_back(serve::RenderRequest(request));
    }
  }
  // Group by owner worker so one envelope costs one round trip per
  // worker touched, not one per element — the round-trip amortisation
  // that makes batch/1 worth anything survives the broker tier. Elements
  // sharing an instance share a worker, so each worker still sees its
  // instance's requests in request order (delta epochs depend on it).
  std::vector<std::vector<std::size_t>> by_worker(
      static_cast<std::size_t>(transport_.num_workers()));
  for (std::size_t i = 0; i < n; ++i) {
    by_worker[static_cast<std::size_t>(
                  ring_.WorkerFor(batch.requests[i].instance.CanonicalKey()))]
        .push_back(i);
  }
  const auto run_worker = [&](int w) {
    const std::vector<std::size_t>& indices =
        by_worker[static_cast<std::size_t>(w)];
    if (indices.size() > 1) {
      std::vector<std::string> sub_docs;
      sub_docs.reserve(indices.size());
      for (const std::size_t i : indices) {
        sub_docs.push_back(element_docs[i]);
      }
      auto line_or = CallWithRetry(
          w, serve::RenderBatchRequestFromDocs(batch.id, sub_docs));
      if (line_or.ok()) {
        auto docs_or = serve::SplitBatchResponseDocs(*line_or);
        if (docs_or.ok() && docs_or->size() == indices.size()) {
          for (std::size_t j = 0; j < indices.size(); ++j) {
            docs[indices[j]] = std::move((*docs_or)[j]);
          }
          return;
        }
      }
      // Degrade to per-element routing: each element retries and answers
      // for itself, exactly as if the envelope had never been grouped.
    }
    for (const std::size_t i : indices) {
      docs[i] = RouteOne(batch.requests[i], element_docs[i]);
    }
  };
  std::vector<int> busy;
  for (int w = 0; w < transport_.num_workers(); ++w) {
    if (!by_worker[static_cast<std::size_t>(w)].empty()) busy.push_back(w);
  }
  // Sub-batches are RPC waits, so all but one fan out on dedicated
  // threads, not the shared ThreadPool: the broker's HandleLine already
  // runs inside a pool job, where a nested ParallelFor degrades to
  // serial, and an in-process worker may need exactly those pool threads
  // to answer. The first sub-batch rides the calling thread; spawning is
  // per-envelope overhead worth avoiding where the wait is unavoidable
  // anyway.
  if (!busy.empty()) {
    std::vector<std::thread> threads;
    threads.reserve(busy.size() - 1);
    for (std::size_t b = 1; b < busy.size(); ++b) {
      threads.emplace_back(run_worker, busy[b]);
    }
    run_worker(busy.front());
    for (std::thread& thread : threads) thread.join();
  }
  return serve::RenderBatchResponseFromDocs(batch.id, docs);
}

std::string BrokerSession::HandleLine(
    const std::string& line, std::chrono::steady_clock::time_point) {
  try {
    auto any_or = serve::ParseAnyRequestLine(line);
    // Malformed lines answer locally with the exact bytes a worker would
    // produce — same parser, same RenderLineError.
    if (!any_or.ok()) return serve::RenderLineError(line, any_or.status());
    if (any_or->is_batch) {
      // Per-worker sub-batches, spliced back in request order —
      // byte-identical to a worker-local batch because per-element
      // response semantics are independent by contract (and pinned by
      // the fleet equivalence tests).
      return ExecuteBatch(any_or->batch, line);
    }
    return RouteOne(any_or->request, line);
  } catch (const std::exception& error) {
    return serve::RenderLineError(line, Status::Internal(error.what()));
  }
}

}  // namespace groupform::fleet
