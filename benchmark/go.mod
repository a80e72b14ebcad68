module lbcast/benchmark

go 1.24

require lbcast v0.0.0

replace lbcast => ../
