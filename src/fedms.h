// Umbrella header: the public API surface of the Fed-MS library.
//
// Fine-grained headers remain includable individually; this is the
// convenience entry point for downstream users:
//
//   #include <fedms.h>
//   fedms::fl::RunResult r = fedms::fl::run_experiment(workload, fed);
#pragma once

// Core utilities
#include "core/cli.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"

// Tensor / NN substrate
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/checkpoint.h"
#include "nn/classifier.h"
#include "nn/conv_layers.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/conv.h"
#include "tensor/conv_im2col.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

// Data
#include "data/convex.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/sampler.h"
#include "data/synthetic.h"

// Simulated edge network
#include "net/latency.h"
#include "net/message.h"
#include "net/node_id.h"
#include "net/sim_network.h"

// Adversaries
#include "byz/attack.h"
#include "byz/attacks.h"
#include "byz/client_attacks.h"

// The Fed-MS algorithm
#include "fl/aggregators.h"
#include "fl/config.h"
#include "fl/experiment.h"
#include "fl/fedms.h"
#include "fl/learner.h"
#include "fl/nn_learner.h"
#include "fl/quadratic_learner.h"
#include "fl/server.h"
#include "fl/upload.h"
#include "fl/wire_encoding.h"

// Telemetry
#include "metrics/classification.h"
#include "metrics/json.h"
#include "metrics/recorder.h"
#include "metrics/stats.h"
#include "metrics/table.h"
