module acqp/bench

go 1.22

require acqp v0.0.0

replace acqp => ../
