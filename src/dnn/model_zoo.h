// The five networks the paper evaluates (§IV: AlexNet, VGG-16, ResNet-18,
// Darknet-53, Inception-v4), built layer-by-layer with faithful hyper-parameters,
// plus small synthetic networks used by tests, examples and the VSM studies.
//
// All ImageNet models take 3x224x224 input as in the paper. Group labels follow
// the row labels of Fig. 1 (e.g. ResNet "block1".."block8", Darknet "residual1"..)
// so profiling reports can aggregate exactly like the paper's plots.
#pragma once

#include "dnn/network.h"

namespace d3::dnn::zoo {

// Chain-topology classifiers (Neurosurgeon-compatible).
Network alexnet();
Network vgg16();

// DAG-topology classifiers.
Network resnet18();
Network darknet53();
Network inception_v4();

// All five paper models, in the order the paper's figures list them.
std::vector<Network> paper_models();

// Looks a zoo model up by its Network::name() ("tiny-chain", "AlexNet", ...) —
// how a d3_node worker process rebuilds the model named in a shipped plan
// (every node holds the shared model zoo; only the name crosses the wire).
// grid-module resolves at its default 8x8 size. Throws std::invalid_argument
// on unknown names.
Network by_name(const std::string& name);

// The Inception-v4 grid module of Fig. 3a as a standalone network whose DAG is
// exactly Fig. 3b: vertex 0 = v0 (virtual input), vertices 1..13 = v1..v13 with
// graph layers Z0={v0}, Z1={v1}, Z2={v2..v5}, Z3={v6..v9}, Z4={v10}, Z5={v11,v12},
// Z6={v13}. `h`/`w` pick the spatial size (channels fixed at 1536 as in
// Inception-C).
Network grid_module(int h = 8, int w = 8);

// Small executable networks for tests and the quickstart example.
Network tiny_chain();   // conv/pool/fc chain on 3x32x32
Network tiny_branch();  // two-branch concat DAG on 3x16x16
// conv/pool/fc chain on 16x24x24 whose convs and fc1 each cross the kernels'
// intra-op parallelism threshold (1 << 20 MACs; fc1 has a ragged 250 rows),
// so multi-process tests run parallel GEMM/GEMV tasks inside real workers.
Network wide_chain();

// A bare stack of convolutional layers (each `channels[i]` with the matching
// window), the canonical VSM workload. No activation layers.
Network conv_stack(const std::string& name, Shape input,
                   const std::vector<std::pair<int, Window>>& convs);

}  // namespace d3::dnn::zoo
