module cosplit/benchmark

go 1.22

require cosplit v0.0.0

replace cosplit => ../
