module sconrep/benchmark

go 1.22

require sconrep v0.0.0

replace sconrep => ../
