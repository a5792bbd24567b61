module ip_models(input clk, input clk2, input [7:0] din, input a, input b,
                 input pop, input fwd, input [2:0] wa, input [2:0] ra,
                 output reg [7:0] out);
    wire [7:0] head;
    wire [3:0] h1;
    wire [3:0] h2;
    wire empty;
    wire [7:0] rq;
    reg [7:0] stage;
    scfifo #(.WIDTH(8), .DEPTH(8)) f0 (.clock(clk), .data({din[3:0], din[7:4]}),
        .wrreq(a & b), .rdreq(pop), .q(head), .empty(empty));
    dcfifo #(.WIDTH(8), .DEPTH(8)) f1 (.wrclk(clk), .rdclk(clk2), .data(stage ^ din),
        .wrreq(a ? b : fwd), .rdreq(pop), .q({h1, h2}));
    altsyncram #(.WIDTH(8), .DEPTH(8)) r0 (.clock0(clk), .data(head), .wraddress(wa),
        .wren(fwd), .rdaddress(ra), .q(rq));
    always @(posedge clk) begin
        if (pop) stage <= head;
        if (fwd && !empty) out <= stage + rq + {h1, h2};
    end
endmodule
