module priste/benchmark

go 1.24

require priste v0.0.0

replace priste => ../
