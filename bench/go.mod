module ediflow/bench

go 1.22

require ediflow v0.0.0

replace ediflow => ../
