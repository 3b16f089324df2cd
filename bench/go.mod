// The benchmark is a module of its own so that it has its own build
// file; the module path sits under "irs" so that it may import
// irs/internal/..., and the replace points at the checkout it is in.
module irs/bench

go 1.23

require irs v0.0.0

replace irs => ../
