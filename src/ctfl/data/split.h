#ifndef CTFL_DATA_SPLIT_H_
#define CTFL_DATA_SPLIT_H_

#include "ctfl/data/dataset.h"
#include "ctfl/util/rng.h"

namespace ctfl {

struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Random train/test split preserving the class ratio (stratified). The
/// test portion plays the role of the federation-reserved test set D_te
/// from paper Eq. (1).
TrainTestSplit StratifiedSplit(const Dataset& dataset, double test_fraction,
                               Rng& rng);

}  // namespace ctfl

#endif  // CTFL_DATA_SPLIT_H_
