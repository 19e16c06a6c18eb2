#pragma once

/// \file time.hpp
/// Simulation time. hmcs uses a double measured in microseconds (see
/// hmcs/util/units.hpp for the unit system). A dedicated alias keeps
/// signatures self-documenting.

namespace hmcs::simcore {

using SimTime = double;

}  // namespace hmcs::simcore
