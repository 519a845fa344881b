#include "dnn/model_zoo.h"

#include <stdexcept>
#include <string>

namespace d3::dnn::zoo {

namespace {

// conv + relu sharing a group, the AlexNet/VGG building block (no batch norm in
// those architectures).
LayerId conv_relu(Network& net, const std::string& name, LayerId input, int out_channels,
                  int kernel, int stride, int pad, const std::string& group) {
  LayerSpec c = LayerSpec::conv(name, out_channels,
                                Window{kernel, kernel, stride, stride, pad, pad});
  c.group = group;
  const LayerId conv_id = net.add(std::move(c), {input});
  LayerSpec r = LayerSpec::relu(name + "_relu");
  r.group = group;
  return net.add(std::move(r), {conv_id});
}

LayerId pool_grouped(Network& net, const std::string& name, LayerId input, int kernel,
                     int stride, const std::string& group, int pad = 0) {
  LayerSpec p = LayerSpec::max_pool(name, Window{kernel, kernel, stride, stride, pad, pad});
  p.group = group;
  return net.add(std::move(p), {input});
}

LayerId fc_relu(Network& net, const std::string& name, LayerId input, int out_features,
                const std::string& group, bool with_relu = true) {
  LayerSpec f = LayerSpec::fully_connected(name, out_features);
  f.group = group;
  const LayerId fc_id = net.add(std::move(f), {input});
  if (!with_relu) return fc_id;
  LayerSpec r = LayerSpec::relu(name + "_relu");
  r.group = group;
  return net.add(std::move(r), {fc_id});
}

}  // namespace

Network alexnet() {
  Network net("AlexNet", Shape{3, 224, 224});
  LayerId x = conv_relu(net, "conv1", kNetworkInput, 96, 11, 4, 2, "conv1");
  x = pool_grouped(net, "maxpool1", x, 3, 2, "maxpool1");
  x = conv_relu(net, "conv2", x, 256, 5, 1, 2, "conv2");
  x = pool_grouped(net, "maxpool2", x, 3, 2, "maxpool2");
  x = conv_relu(net, "conv3", x, 384, 3, 1, 1, "conv3");
  x = conv_relu(net, "conv4", x, 384, 3, 1, 1, "conv4");
  x = conv_relu(net, "conv5", x, 256, 3, 1, 1, "conv5");
  x = pool_grouped(net, "maxpool3", x, 3, 2, "maxpool3");
  x = fc_relu(net, "fc1", x, 4096, "fc1");
  x = fc_relu(net, "fc2", x, 4096, "fc2");
  x = fc_relu(net, "fc3", x, 1000, "fc3", /*with_relu=*/false);
  LayerSpec sm = LayerSpec::softmax("softmax");
  sm.group = "fc3";
  net.add(std::move(sm), {x});
  return net;
}

Network vgg16() {
  Network net("VGG-16", Shape{3, 224, 224});
  // (output channels, convs-per-block) of the five VGG blocks.
  const int block_channels[5] = {64, 128, 256, 512, 512};
  const int block_convs[5] = {2, 2, 3, 3, 3};
  LayerId x = kNetworkInput;
  int conv_index = 1;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < block_convs[b]; ++i) {
      const std::string name = "conv" + std::to_string(conv_index++);
      x = conv_relu(net, name, x, block_channels[b], 3, 1, 1, name);
    }
    // The pool belongs to the last conv's row in the paper's Fig. 1a.
    x = pool_grouped(net, "pool" + std::to_string(b + 1), x, 2, 2,
                     "conv" + std::to_string(conv_index - 1));
  }
  x = fc_relu(net, "fc1", x, 4096, "fc1");
  x = fc_relu(net, "fc2", x, 4096, "fc2");
  x = fc_relu(net, "fc3", x, 1000, "fc3", /*with_relu=*/false);
  LayerSpec sm = LayerSpec::softmax("softmax");
  sm.group = "fc3";
  net.add(std::move(sm), {x});
  return net;
}

Network resnet18() {
  Network net("ResNet-18", Shape{3, 224, 224});
  LayerId x = net.conv_bn_relu("conv1", kNetworkInput, 64, 7, 2, 3, "conv1");
  x = pool_grouped(net, "maxpool", x, 3, 2, "conv1", /*pad=*/1);

  int block_index = 1;
  const auto basic_block = [&](LayerId input, int channels, int stride) -> LayerId {
    const std::string g = "block" + std::to_string(block_index++);
    LayerId identity = input;
    LayerId y = net.conv_bn_relu(g + "_conv1", input, channels, 3, stride, 1, g);
    // Second conv has no trailing relu before the residual add.
    LayerSpec c2 = LayerSpec::conv(g + "_conv2", channels, Window{3, 3, 1, 1, 1, 1});
    c2.group = g;
    y = net.add(std::move(c2), {y});
    LayerSpec bn2 = LayerSpec::batch_norm(g + "_bn2");
    bn2.group = g;
    y = net.add(std::move(bn2), {y});
    if (stride != 1) {
      // Projection shortcut: 1x1 conv + bn.
      LayerSpec pc = LayerSpec::conv(g + "_down", channels, Window{1, 1, stride, stride, 0, 0});
      pc.group = g;
      identity = net.add(std::move(pc), {identity});
      LayerSpec pbn = LayerSpec::batch_norm(g + "_down_bn");
      pbn.group = g;
      identity = net.add(std::move(pbn), {identity});
    }
    LayerSpec addspec = LayerSpec::add(g + "_add");
    addspec.group = g;
    const LayerId sum = net.add(std::move(addspec), {y, identity});
    LayerSpec r = LayerSpec::relu(g + "_out");
    r.group = g;
    return net.add(std::move(r), {sum});
  };

  const int stage_channels[4] = {64, 128, 256, 512};
  for (int stage = 0; stage < 4; ++stage) {
    const int stride = stage == 0 ? 1 : 2;
    x = basic_block(x, stage_channels[stage], stride);
    x = basic_block(x, stage_channels[stage], 1);
  }

  LayerSpec gap = LayerSpec::global_avg_pool("gap");
  gap.group = "fc";
  x = net.add(std::move(gap), {x});
  x = fc_relu(net, "fc", x, 1000, "fc", /*with_relu=*/false);
  LayerSpec sm = LayerSpec::softmax("softmax");
  sm.group = "fc";
  net.add(std::move(sm), {x});
  return net;
}

Network darknet53() {
  Network net("Darknet-53", Shape{3, 224, 224});
  LayerId x = net.conv_bn_relu("conv1", kNetworkInput, 32, 3, 1, 1, "conv1");

  // (residual repeat count, output channels) of the five Darknet stages; each
  // stage begins with a stride-2 downsampling conv. Group names follow Fig. 1c.
  const int repeats[5] = {1, 2, 8, 8, 4};
  const int channels[5] = {64, 128, 256, 512, 1024};
  for (int stage = 0; stage < 5; ++stage) {
    const std::string down_group = "conv" + std::to_string(stage + 2);
    x = net.conv_bn_relu(down_group, x, channels[stage], 3, 2, 1, down_group);
    const std::string res_group = "residual" + std::to_string(stage + 1);
    for (int r = 0; r < repeats[stage]; ++r) {
      const std::string p = res_group + "_" + std::to_string(r + 1);
      const LayerId shortcut = x;
      LayerId y = net.conv_bn_relu(p + "_1x1", x, channels[stage] / 2, 1, 1, 0, res_group);
      y = net.conv_bn_relu(p + "_3x3", y, channels[stage], 3, 1, 1, res_group);
      LayerSpec addspec = LayerSpec::add(p + "_add");
      addspec.group = res_group;
      x = net.add(std::move(addspec), {y, shortcut});
    }
  }

  LayerSpec gap = LayerSpec::global_avg_pool("gap");
  gap.group = "fc";
  x = net.add(std::move(gap), {x});
  x = fc_relu(net, "fc", x, 1000, "fc", /*with_relu=*/false);
  LayerSpec sm = LayerSpec::softmax("softmax");
  sm.group = "fc";
  net.add(std::move(sm), {x});
  return net;
}

namespace {

// Rectangular conv + bn + relu used throughout Inception-v4.
LayerId iconv(Network& net, const std::string& name, LayerId input, int out_channels,
              int kw, int kh, int pw, int ph, int stride, const std::string& group) {
  LayerSpec c = LayerSpec::conv(name, out_channels, Window{kw, kh, stride, stride, pw, ph});
  c.group = group;
  LayerId x = net.add(std::move(c), {input});
  LayerSpec bn = LayerSpec::batch_norm(name + "_bn");
  bn.group = group;
  x = net.add(std::move(bn), {x});
  LayerSpec r = LayerSpec::relu(name + "_relu");
  r.group = group;
  return net.add(std::move(r), {x});
}

LayerId iconv_sq(Network& net, const std::string& name, LayerId input, int out_channels,
                 int kernel, int stride, int pad, const std::string& group) {
  return iconv(net, name, input, out_channels, kernel, kernel, pad, pad, stride, group);
}

LayerId inception_a(Network& net, LayerId input, const std::string& g) {
  LayerSpec ap = LayerSpec::avg_pool(g + "_b1_pool", Window{3, 3, 1, 1, 1, 1});
  ap.group = g;
  LayerId b1 = net.add(std::move(ap), {input});
  b1 = iconv_sq(net, g + "_b1_1x1", b1, 96, 1, 1, 0, g);
  const LayerId b2 = iconv_sq(net, g + "_b2_1x1", input, 96, 1, 1, 0, g);
  LayerId b3 = iconv_sq(net, g + "_b3_1x1", input, 64, 1, 1, 0, g);
  b3 = iconv_sq(net, g + "_b3_3x3", b3, 96, 3, 1, 1, g);
  LayerId b4 = iconv_sq(net, g + "_b4_1x1", input, 64, 1, 1, 0, g);
  b4 = iconv_sq(net, g + "_b4_3x3a", b4, 96, 3, 1, 1, g);
  b4 = iconv_sq(net, g + "_b4_3x3b", b4, 96, 3, 1, 1, g);
  LayerSpec cat = LayerSpec::concat(g + "_concat");
  cat.group = g;
  return net.add(std::move(cat), {b1, b2, b3, b4});
}

LayerId reduction_a(Network& net, LayerId input, const std::string& g) {
  LayerSpec mp = LayerSpec::max_pool(g + "_b1_pool", Window{3, 3, 2, 2, 0, 0});
  mp.group = g;
  const LayerId b1 = net.add(std::move(mp), {input});
  const LayerId b2 = iconv_sq(net, g + "_b2_3x3", input, 384, 3, 2, 0, g);
  LayerId b3 = iconv_sq(net, g + "_b3_1x1", input, 192, 1, 1, 0, g);
  b3 = iconv_sq(net, g + "_b3_3x3a", b3, 224, 3, 1, 1, g);
  b3 = iconv_sq(net, g + "_b3_3x3b", b3, 256, 3, 2, 0, g);
  LayerSpec cat = LayerSpec::concat(g + "_concat");
  cat.group = g;
  return net.add(std::move(cat), {b1, b2, b3});
}

LayerId inception_b(Network& net, LayerId input, const std::string& g) {
  LayerSpec ap = LayerSpec::avg_pool(g + "_b1_pool", Window{3, 3, 1, 1, 1, 1});
  ap.group = g;
  LayerId b1 = net.add(std::move(ap), {input});
  b1 = iconv_sq(net, g + "_b1_1x1", b1, 128, 1, 1, 0, g);
  const LayerId b2 = iconv_sq(net, g + "_b2_1x1", input, 384, 1, 1, 0, g);
  LayerId b3 = iconv_sq(net, g + "_b3_1x1", input, 192, 1, 1, 0, g);
  b3 = iconv(net, g + "_b3_1x7", b3, 224, 7, 1, 3, 0, 1, g);
  b3 = iconv(net, g + "_b3_7x1", b3, 256, 1, 7, 0, 3, 1, g);
  LayerId b4 = iconv_sq(net, g + "_b4_1x1", input, 192, 1, 1, 0, g);
  b4 = iconv(net, g + "_b4_1x7a", b4, 192, 7, 1, 3, 0, 1, g);
  b4 = iconv(net, g + "_b4_7x1a", b4, 224, 1, 7, 0, 3, 1, g);
  b4 = iconv(net, g + "_b4_1x7b", b4, 224, 7, 1, 3, 0, 1, g);
  b4 = iconv(net, g + "_b4_7x1b", b4, 256, 1, 7, 0, 3, 1, g);
  LayerSpec cat = LayerSpec::concat(g + "_concat");
  cat.group = g;
  return net.add(std::move(cat), {b1, b2, b3, b4});
}

LayerId reduction_b(Network& net, LayerId input, const std::string& g) {
  LayerSpec mp = LayerSpec::max_pool(g + "_b1_pool", Window{3, 3, 2, 2, 0, 0});
  mp.group = g;
  const LayerId b1 = net.add(std::move(mp), {input});
  LayerId b2 = iconv_sq(net, g + "_b2_1x1", input, 192, 1, 1, 0, g);
  b2 = iconv_sq(net, g + "_b2_3x3", b2, 192, 3, 2, 0, g);
  LayerId b3 = iconv_sq(net, g + "_b3_1x1", input, 256, 1, 1, 0, g);
  b3 = iconv(net, g + "_b3_1x7", b3, 256, 7, 1, 3, 0, 1, g);
  b3 = iconv(net, g + "_b3_7x1", b3, 320, 1, 7, 0, 3, 1, g);
  b3 = iconv_sq(net, g + "_b3_3x3", b3, 320, 3, 2, 0, g);
  LayerSpec cat = LayerSpec::concat(g + "_concat");
  cat.group = g;
  return net.add(std::move(cat), {b1, b2, b3});
}

LayerId inception_c(Network& net, LayerId input, const std::string& g) {
  LayerSpec ap = LayerSpec::avg_pool(g + "_b1_pool", Window{3, 3, 1, 1, 1, 1});
  ap.group = g;
  LayerId b1 = net.add(std::move(ap), {input});
  b1 = iconv_sq(net, g + "_b1_1x1", b1, 256, 1, 1, 0, g);
  const LayerId b2 = iconv_sq(net, g + "_b2_1x1", input, 256, 1, 1, 0, g);
  LayerId b3 = iconv_sq(net, g + "_b3_1x1", input, 384, 1, 1, 0, g);
  const LayerId b3a = iconv(net, g + "_b3_1x3", b3, 256, 3, 1, 1, 0, 1, g);
  const LayerId b3b = iconv(net, g + "_b3_3x1", b3, 256, 1, 3, 0, 1, 1, g);
  LayerId b4 = iconv_sq(net, g + "_b4_1x1", input, 384, 1, 1, 0, g);
  b4 = iconv(net, g + "_b4_1x3", b4, 448, 3, 1, 1, 0, 1, g);
  b4 = iconv(net, g + "_b4_3x1", b4, 512, 1, 3, 0, 1, 1, g);
  const LayerId b4a = iconv(net, g + "_b4_3x1b", b4, 256, 1, 3, 0, 1, 1, g);
  const LayerId b4b = iconv(net, g + "_b4_1x3b", b4, 256, 3, 1, 1, 0, 1, g);
  LayerSpec cat = LayerSpec::concat(g + "_concat");
  cat.group = g;
  return net.add(std::move(cat), {b1, b2, b3a, b3b, b4a, b4b});
}

}  // namespace

Network inception_v4() {
  Network net("Inception-v4", Shape{3, 224, 224});
  const std::string stem = "stem";
  LayerId x = iconv_sq(net, "stem_conv1", kNetworkInput, 32, 3, 2, 0, stem);
  x = iconv_sq(net, "stem_conv2", x, 32, 3, 1, 0, stem);
  x = iconv_sq(net, "stem_conv3", x, 64, 3, 1, 1, stem);

  LayerSpec mp1 = LayerSpec::max_pool("stem_pool1", Window{3, 3, 2, 2, 0, 0});
  mp1.group = stem;
  const LayerId p1 = net.add(std::move(mp1), {x});
  const LayerId c1 = iconv_sq(net, "stem_conv4", x, 96, 3, 2, 0, stem);
  LayerSpec cat1 = LayerSpec::concat("stem_concat1");
  cat1.group = stem;
  x = net.add(std::move(cat1), {p1, c1});

  LayerId b1 = iconv_sq(net, "stem_b1_1x1", x, 64, 1, 1, 0, stem);
  b1 = iconv_sq(net, "stem_b1_3x3", b1, 96, 3, 1, 0, stem);
  LayerId b2 = iconv_sq(net, "stem_b2_1x1", x, 64, 1, 1, 0, stem);
  b2 = iconv(net, "stem_b2_1x7", b2, 64, 7, 1, 3, 0, 1, stem);
  b2 = iconv(net, "stem_b2_7x1", b2, 64, 1, 7, 0, 3, 1, stem);
  b2 = iconv_sq(net, "stem_b2_3x3", b2, 96, 3, 1, 0, stem);
  LayerSpec cat2 = LayerSpec::concat("stem_concat2");
  cat2.group = stem;
  x = net.add(std::move(cat2), {b1, b2});

  const LayerId c2 = iconv_sq(net, "stem_conv5", x, 192, 3, 2, 0, stem);
  LayerSpec mp2 = LayerSpec::max_pool("stem_pool2", Window{3, 3, 2, 2, 0, 0});
  mp2.group = stem;
  const LayerId p2 = net.add(std::move(mp2), {x});
  LayerSpec cat3 = LayerSpec::concat("stem_concat3");
  cat3.group = stem;
  x = net.add(std::move(cat3), {c2, p2});

  for (int i = 1; i <= 4; ++i) x = inception_a(net, x, "inceptionA" + std::to_string(i));
  x = reduction_a(net, x, "reductionA");
  for (int i = 1; i <= 7; ++i) x = inception_b(net, x, "inceptionB" + std::to_string(i));
  x = reduction_b(net, x, "reductionB");
  for (int i = 1; i <= 3; ++i) x = inception_c(net, x, "inceptionC" + std::to_string(i));

  LayerSpec gap = LayerSpec::global_avg_pool("gap");
  gap.group = "fc";
  x = net.add(std::move(gap), {x});
  x = fc_relu(net, "fc", x, 1000, "fc", /*with_relu=*/false);
  LayerSpec sm = LayerSpec::softmax("softmax");
  sm.group = "fc";
  net.add(std::move(sm), {x});
  return net;
}

std::vector<Network> paper_models() {
  std::vector<Network> models;
  models.push_back(alexnet());
  models.push_back(vgg16());
  models.push_back(resnet18());
  models.push_back(darknet53());
  models.push_back(inception_v4());
  return models;
}

Network by_name(const std::string& name) {
  if (name == "tiny-chain") return tiny_chain();
  if (name == "tiny-branch") return tiny_branch();
  if (name == "wide-chain") return wide_chain();
  if (name == "grid-module") return grid_module();
  if (name == "AlexNet") return alexnet();
  if (name == "VGG-16") return vgg16();
  if (name == "ResNet-18") return resnet18();
  if (name == "Darknet-53") return darknet53();
  if (name == "Inception-v4") return inception_v4();
  throw std::invalid_argument("zoo: unknown model '" + name + "'");
}

Network grid_module(int h, int w) {
  Network net("grid-module", Shape{1536, h, w});
  // v1: the "Filter Concat1" entry point, shape-preserving.
  const LayerId v1 = net.relu("filter_concat1", kNetworkInput);
  // Z2 branch heads.
  const LayerId v2 = net.avg_pool("avg_pooling", v1, 3, 1, 1);
  const LayerId v3 = net.conv("conv2_1x1", v1, 256, 1);
  const LayerId v4 = net.conv("conv3_1x1", v1, 384, 1);
  const LayerId v5 = net.conv("conv7_1x1", v1, 384, 1);
  // Z3.
  const LayerId v6 = net.conv("conv1_1x1", v2, 256, 1);
  const LayerId v7 = net.conv_rect("conv5_1x3", v4, 256, 3, 1, 1, 0);
  const LayerId v8 = net.conv_rect("conv6_3x1", v4, 256, 1, 3, 0, 1);
  const LayerId v9 = net.conv_rect("conv4_1x3", v5, 448, 3, 1, 1, 0);
  // Z4.
  const LayerId v10 = net.conv_rect("conv8_3x1", v9, 512, 1, 3, 0, 1);
  // Z5.
  const LayerId v11 = net.conv_rect("conv9_3x1", v10, 256, 1, 3, 0, 1);
  const LayerId v12 = net.conv_rect("conv10_1x3", v10, 256, 3, 1, 1, 0);
  // Z6: "Filter Concat2".
  net.concat("filter_concat2", {v6, v3, v7, v8, v11, v12});
  return net;
}

Network tiny_chain() {
  Network net("tiny-chain", Shape{3, 32, 32});
  LayerId x = net.conv("conv1", kNetworkInput, 8, 3, 1, 1);
  x = net.relu("relu1", x);
  x = net.max_pool("pool1", x, 2, 2);
  x = net.conv("conv2", x, 16, 3, 1, 1);
  x = net.relu("relu2", x);
  x = net.max_pool("pool2", x, 2, 2);
  x = net.fully_connected("fc1", x, 32);
  x = net.relu("relu3", x);
  x = net.fully_connected("fc2", x, 10);
  net.softmax("softmax", x);
  return net;
}

Network tiny_branch() {
  Network net("tiny-branch", Shape{3, 16, 16});
  const LayerId stemconv = net.conv("stem", kNetworkInput, 8, 3, 1, 1);
  const LayerId stem = net.relu("stem_relu", stemconv);
  const LayerId a = net.conv("branch_a", stem, 8, 1);
  LayerId b = net.conv("branch_b1", stem, 8, 3, 1, 1);
  b = net.conv("branch_b2", b, 8, 3, 1, 1);
  const LayerId cat = net.concat("concat", {a, b});
  LayerId x = net.conv("merge", cat, 16, 3, 2, 1);
  x = net.global_avg_pool("gap", x);
  x = net.fully_connected("fc", x, 10);
  net.softmax("softmax", x);
  return net;
}

Network wide_chain() {
  Network net("wide-chain", Shape{16, 24, 24});
  LayerId x = net.conv("conv1", kNetworkInput, 64, 3, 1, 1);
  x = net.relu("relu1", x);
  x = net.conv("conv2", x, 64, 3, 1, 1);
  x = net.relu("relu2", x);
  x = net.max_pool("pool1", x, 2, 2);
  x = net.fully_connected("fc1", x, 250);
  x = net.relu("relu3", x);
  net.fully_connected("fc2", x, 10);
  return net;
}

Network conv_stack(const std::string& name, Shape input,
                   const std::vector<std::pair<int, Window>>& convs) {
  if (convs.empty()) throw std::invalid_argument("conv_stack: needs at least one conv");
  Network net(name, input);
  LayerId x = kNetworkInput;
  int index = 1;
  for (const auto& [channels, window] : convs)
    x = net.add(LayerSpec::conv("conv" + std::to_string(index++), channels, window), {x});
  return net;
}

}  // namespace d3::dnn::zoo
