#include "lib/used.hpp"
