#include "nn/cells.h"

namespace lpce::nn {

TreeSruCell::TreeSruCell(ParamStore* store, const std::string& prefix, size_t dim,
                         Rng* rng)
    : wx_(store, prefix + ".wx", dim, dim, rng),
      wf_(store, prefix + ".wf", dim, dim, rng),
      wr_(store, prefix + ".wr", dim, dim, rng),
      dim_(dim) {}

TreeLstmCell::TreeLstmCell(ParamStore* store, const std::string& prefix, size_t dim,
                           Rng* rng)
    : wi_(store, prefix + ".wi", dim, dim, rng),
      ui_(store, prefix + ".ui", dim, dim, rng),
      wf_(store, prefix + ".wf", dim, dim, rng),
      uf_(store, prefix + ".uf", dim, dim, rng),
      wo_(store, prefix + ".wo", dim, dim, rng),
      uo_(store, prefix + ".uo", dim, dim, rng),
      wg_(store, prefix + ".wg", dim, dim, rng),
      ug_(store, prefix + ".ug", dim, dim, rng),
      dim_(dim) {}

}  // namespace lpce::nn
